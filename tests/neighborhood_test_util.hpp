// Shared helpers of the neighborhood and DBSCAN differential tests: random,
// non-protocol segment populations and the epsilon walks to query them at.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "dissim/matrix.hpp"
#include "util/byteio.hpp"
#include "util/rng.hpp"

namespace ftc::neighborhood_test {

/// n random values mixing four families, so every population holds each
/// edge of the sparse engine:
///  - random bytes at gapped lengths 2..40, so length buckets skip lengths
///    and the bound differs between neighboring buckets;
///  - windows of one parent string, whose dissimilarity to the parent and
///    to each other lies on the length bound;
///  - near-duplicates (one byte moved by one) and exact duplicates of an
///    earlier value, giving tiny and zero distances;
///  - equal-length two-letter strings, giving exact distance ties.
inline std::vector<byte_vector> population(std::size_t n, std::uint64_t seed) {
    static constexpr std::size_t kLengths[] = {2, 3, 4, 5, 7, 8, 10, 13, 16, 20, 26, 32, 40};
    rng rand(seed);
    const byte_vector parent = rand.bytes(40);
    std::vector<byte_vector> out;
    while (out.size() < n) {
        const std::size_t len = rand.pick(std::span<const std::size_t>(kLengths));
        switch (rand.uniform(0, 3)) {
            case 0:
                out.push_back(rand.bytes(len));
                break;
            case 1: {
                const std::size_t at = rand.uniform(0, parent.size() - len);
                out.emplace_back(parent.begin() + static_cast<std::ptrdiff_t>(at),
                                 parent.begin() + static_cast<std::ptrdiff_t>(at + len));
                break;
            }
            case 2: {
                if (out.empty()) {
                    break;
                }
                byte_vector copy = out[rand.uniform(0, out.size() - 1)];
                if (rand.chance(0.7)) {
                    std::uint8_t& b = copy[rand.uniform(0, copy.size() - 1)];
                    b = b == 255 ? 254 : static_cast<std::uint8_t>(b + 1);
                }
                out.push_back(std::move(copy));
                break;
            }
            default: {
                byte_vector v(len);
                for (std::uint8_t& b : v) {
                    b = rand.chance(0.5) ? 0x40 : 0x80;
                }
                out.push_back(std::move(v));
                break;
            }
        }
    }
    return out;
}

/// (n, seed) of the populations the differential tests walk: the sizes
/// 3, 9, 17 and 200, the small ones at two seeds.
inline constexpr std::pair<std::size_t, std::uint64_t> kPopulations[] = {
    {3, 1}, {9, 1}, {9, 2}, {17, 1}, {17, 2}, {200, 1}};

/// Epsilons to query \p matrix's population at, ascending and then
/// descending, so a later prepare meets caches an earlier one left: 0, a
/// fixed grid, stored cells (pairs sitting exactly on epsilon) and
/// \p cap-th neighbor distances (where a capped list stops being
/// complete).
inline std::vector<double> epsilon_walk(const dissim::dissimilarity_matrix& matrix,
                                        std::size_t cap) {
    std::vector<double> eps{0.0, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0};
    const std::size_t n = matrix.size();
    const std::size_t step = std::max<std::size_t>(1, n / 6);
    for (std::size_t j = 1; j < n; j += step) {
        eps.push_back(matrix.at(0, j));
        eps.push_back(matrix.at(n / 2, j));
    }
    if (n > 1) {
        const std::vector<double> knn = matrix.kth_nn(cap);
        for (std::size_t i = 0; i < n; i += step) {
            eps.push_back(knn[i]);
        }
    }
    std::sort(eps.begin(), eps.end());
    eps.erase(std::unique(eps.begin(), eps.end()), eps.end());
    std::vector<double> walk = eps;
    walk.insert(walk.end(), eps.rbegin() + 1, eps.rend());
    return walk;
}

}  // namespace ftc::neighborhood_test
