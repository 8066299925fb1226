#include "parallel/reduce.hpp"

namespace aoadmm::detail {
namespace {

thread_local std::vector<real_t> t_partials;
thread_local bool t_partials_busy = false;

}  // namespace

PartialBuffer::PartialBuffer(std::size_t size) : borrowed_(!t_partials_busy) {
  if (borrowed_) {
    t_partials_busy = true;
    if (t_partials.size() < size) {
      t_partials.resize(size);
    }
    data_ = t_partials.data();
  } else {
    own_.resize(size);
    data_ = own_.data();
  }
}

PartialBuffer::~PartialBuffer() {
  if (borrowed_) {
    t_partials_busy = false;
  }
}

}  // namespace aoadmm::detail
