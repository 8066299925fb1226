// Independent output checkers. Each recomputes what the library claims from
// the inputs and the returned model with plain loops of its own, never by
// calling a library kernel. Every checker returns an empty string when the
// output passes and a description of the first discrepancy otherwise;
// selftest.cpp feeds each one a corrupted output to show it rejects it.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "la/matrix.hpp"
#include "stream/model_server.hpp"
#include "tensor/coo.hpp"

namespace perfbench {

using aoadmm::CooTensor;
using aoadmm::Matrix;

/// Σ_f λ_f ∏_m A_m(coord_m, f); empty λ means all ones.
double model_value(const std::vector<Matrix>& factors,
                   const std::vector<double>& lambda,
                   const std::vector<std::uint32_t>& coord);

/// ‖X − M‖_F / ‖X‖_F over all cells: ⟨X, M⟩ summed directly over the
/// non-zeros, ‖M‖² from the factors' own Gram matrices (unit λ).
double full_relative_error(const CooTensor& x,
                           const std::vector<Matrix>& factors);

/// √(Σ_Ω (x − m)²) / √(Σ_Ω x²) over the stored non-zeros Ω (unit λ).
double observed_relative_error(const CooTensor& x,
                               const std::vector<Matrix>& factors);

/// The reported error must match the recomputed one to `rel_tol`.
std::string check_error(double reported, double recomputed, double rel_tol);

/// Every factor entry must be finite and >= 0.
std::string check_nonnegative(const std::vector<Matrix>& factors);

/// A predict answer must come from the snapshot the reader held (same
/// epoch) and equal the model value recomputed from that snapshot.
std::string check_predict(const aoadmm::KruskalSnapshot& held,
                          std::uint64_t answered_epoch,
                          const std::vector<std::uint32_t>& coord,
                          double answer);

/// A top-k answer must come from the held snapshot and equal a brute-force
/// scan of it: k (clamped) indices, best first, each with its recomputed
/// score, and no omitted index scoring better than the worst returned one.
std::string check_top_k(const aoadmm::KruskalSnapshot& held,
                        std::uint64_t answered_epoch, std::size_t anchor_mode,
                        std::uint32_t row, std::size_t target_mode,
                        std::size_t k,
                        const std::vector<aoadmm::ScoredIndex>& answer);

/// An answer must come from an epoch no older than `published`, the epoch
/// the server had published when the query began.
std::string check_fresh(std::uint64_t published, std::uint64_t answered_epoch);

/// Packed (u, i, t) key of an order-3 stream coordinate.
std::uint64_t stream_key(std::uint32_t u, std::uint32_t i, std::uint32_t t);

/// The benchmark's own model of the live stream window: last value written
/// per distinct coordinate, restricted to time > watermark − window.
using LiveSet = std::unordered_map<std::uint64_t, double>;

/// The live tensor must hold exactly the expected coordinates and values.
std::string check_live_set(const CooTensor& live, const LiveSet& expected);

/// Published epochs must rise by exactly one per refresh, from `first`.
std::string check_epochs(const std::vector<std::uint64_t>& epochs,
                         std::uint64_t first);

/// Runs every checker on a small model with one corruption each; returns
/// the number of corruptions a checker failed to reject (0 = all caught).
int run_selftest();

}  // namespace perfbench
