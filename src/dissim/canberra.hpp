/// \file canberra.hpp
/// Canberra dissimilarity between message segments (paper Sec. III-C;
/// originally Kleber, van der Heijden, Kargl — INFOCOM 2020).
///
/// Segments are interpreted as vectors of byte values. For equal lengths m
/// the normalized Canberra dissimilarity is
///   d(x, y) = (1/m) * sum_i |x_i - y_i| / (x_i + y_i)      in [0, 1],
/// with 0/0 terms contributing 0. For unequal lengths (m = |s| < n = |l|)
/// the shorter segment is slid over the longer one; with d_min the best
/// (smallest) normalized Canberra over all m-length windows of l, the
/// dissimilarity is
///   d(s, l) = ( m * d_min + (n - m) * p ) / n,
///   p       = 1 - (m/n) * (1 - d_min),
/// a non-linear penalty that charges the unmatched bytes less when the
/// matched window fits well and the lengths are close — the behaviour the
/// INFOCOM'20 "Canberra-Ulm dissimilarity" is designed for.
///
/// The functions here are the *reference scalar* implementations — the
/// semantics-defining code the optimized kernel must match bit for bit, and
/// what its tests and bench_kernel compare it against. Hot paths (matrix
/// construction, the sparse engine) go through the kernel in kernel.hpp
/// instead, whose bitwise-identity argument is spelled out in DESIGN.md §9.
#pragma once

#include "util/byteio.hpp"

namespace ftc::dissim {

/// Unnormalized Canberra distance of two equal-length byte vectors, in
/// [0, m] for length m (each per-byte term is in [0, 1]). O(m) with one
/// divide per non-zero byte pair.
/// Throws ftc::precondition_error on length mismatch.
double canberra_distance(byte_view x, byte_view y);

/// Normalized Canberra dissimilarity of two equal-length non-empty byte
/// vectors, in [0, 1]. O(m).
/// Throws ftc::precondition_error when empty.
double canberra_dissimilarity(byte_view x, byte_view y);

/// Sliding Canberra dissimilarity for segments of arbitrary non-zero
/// lengths, in [0, 1]. Symmetric; 0 iff one segment is embedded in the
/// other with a perfect window match (equal-length: iff identical).
/// O(m·(n−m+1)) for lengths m ≤ n — this reference loop sums every window
/// in full; kernel.hpp provides the pruned drop-in with identical output.
/// Throws ftc::precondition_error when either segment is empty.
double sliding_canberra_dissimilarity(byte_view a, byte_view b);

}  // namespace ftc::dissim
