// Bitwise-identity and pruning-correctness proof for the optimized Canberra
// kernel (dissim/kernel.hpp, DESIGN.md §9): the kernel, its batch entry
// points and kernel::batcher must produce bit for bit the dissimilarities
// of the canberra.cpp reference, and so the same matrices and final
// clusterings, serial and parallel; early-exit pruning must never change
// d_min.
#include "dissim/kernel.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "dissim/canberra.hpp"
#include "dissim/matrix.hpp"
#include "protocols/registry.hpp"
#include "segmentation/nemesys.hpp"
#include "segmentation/segment.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace ftc::dissim {
namespace {

constexpr std::uint64_t kSeed = 20220627;

/// Bitwise double equality (EXPECT_EQ on doubles compares values, which is
/// what we want here — all results are finite and never -0.0 — but memcmp
/// makes the bit-level claim explicit).
bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

TEST(KernelTable, TermsBitwiseMatchScalarArithmetic) {
    const double* lut = kernel::term_table();
    for (int x = 0; x < 256; ++x) {
        for (int y = 0; y < 256; ++y) {
            const double xi = x;
            const double yi = y;
            const double denom = xi + yi;
            const double expected = denom != 0.0 ? (xi > yi ? xi - yi : yi - xi) / denom : 0.0;
            ASSERT_TRUE(same_bits(lut[x * 256 + y], expected)) << x << "," << y;
        }
    }
}

TEST(KernelPreconditions, MatchReferenceKernels) {
    EXPECT_THROW(kernel::equal_dissimilarity(byte_vector{}, byte_vector{}),
                 precondition_error);
    EXPECT_THROW(kernel::equal_dissimilarity(byte_vector{1}, byte_vector{1, 2}),
                 precondition_error);
    EXPECT_THROW(kernel::sliding_dissimilarity(byte_vector{}, byte_vector{1}),
                 precondition_error);
}

// Property sweep: randomized segment pairs, lengths 1–64, including the
// degenerate distributions the LUT rows must get exactly right (all-zero
// bytes hit the 0/0 term, saturated 0xff bytes the table's last row).
class KernelBitwiseProps : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KernelBitwiseProps, MatchesReferenceBitwise) {
    rng rand(GetParam());
    for (int trial = 0; trial < 60; ++trial) {
        byte_vector a = rand.bytes(1 + rand.uniform(0, 63));
        byte_vector b = rand.bytes(1 + rand.uniform(0, 63));
        switch (trial % 5) {
            case 1:
                std::fill(a.begin(), a.end(), std::uint8_t{0});
                break;
            case 2:
                std::fill(b.begin(), b.end(), std::uint8_t{0xff});
                break;
            case 3:
                std::fill(a.begin(), a.end(), std::uint8_t{0});
                std::fill(b.begin(), b.end(), std::uint8_t{0xff});
                break;
            case 4:
                std::fill(a.begin(), a.end(), std::uint8_t{0});
                std::fill(b.begin(), b.end(), std::uint8_t{0});
                break;
            default:
                break;
        }
        const double d = kernel::sliding_dissimilarity(a, b);
        ASSERT_TRUE(same_bits(d, sliding_canberra_dissimilarity(a, b)))
            << "|a|=" << a.size() << " |b|=" << b.size() << " trial=" << trial;
        if (a.size() == b.size()) {
            ASSERT_TRUE(
                same_bits(kernel::equal_dissimilarity(a, b), canberra_dissimilarity(a, b)));
        }
        EXPECT_GE(d, 0.0);
        EXPECT_LE(d, 1.0);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelBitwiseProps, ::testing::Range<std::uint64_t>(0, 8));

TEST(KernelPruning, PrunesWindowsWithoutChangingDMin) {
    // The shorter segment embeds perfectly at offset 0; every later window
    // of the high-entropy tail exceeds the bound almost immediately, so the
    // pruned loop must abandon them — and still return the reference value.
    rng rand(7);
    byte_vector l = rand.bytes(192);
    byte_vector s(l.begin(), l.begin() + 48);
    kernel::stats st;
    const double d = kernel::sliding_dissimilarity(s, l, &st);
    ASSERT_TRUE(same_bits(d, sliding_canberra_dissimilarity(s, l)));
    EXPECT_EQ(st.invocations, 1u);
    EXPECT_EQ(st.equal_fast_path, 0u);
    EXPECT_GT(st.windows_total, 0u);
    // A perfect window at offset 0 makes best == 0, so the loop stops after
    // the first window and prunes nothing; perturb one byte so the first
    // window is near-perfect (tiny nonzero bound) and every random tail
    // window must blow past it.
    byte_vector perturbed(l.begin(), l.begin() + 48);
    perturbed[5] = static_cast<std::uint8_t>(perturbed[5] ^ 0x01);
    kernel::stats st2;
    const double d2 = kernel::sliding_dissimilarity(perturbed, l, &st2);
    ASSERT_TRUE(same_bits(d2, sliding_canberra_dissimilarity(perturbed, l)));
    EXPECT_GT(st2.windows_pruned, 0u);
    EXPECT_LE(st2.windows_pruned, st2.windows_total);
}

TEST(KernelPruning, RandomizedPruningNeverChangesResult) {
    rng rand(11);
    std::uint64_t pruned_somewhere = 0;
    for (int trial = 0; trial < 40; ++trial) {
        const byte_vector s = rand.bytes(2 + rand.uniform(0, 30));
        const byte_vector l = rand.bytes(static_cast<std::size_t>(s.size()) + 1 +
                                         rand.uniform(0, 96));
        kernel::stats st;
        ASSERT_TRUE(same_bits(kernel::sliding_dissimilarity(s, l, &st),
                              sliding_canberra_dissimilarity(s, l)))
            << "trial=" << trial;
        pruned_somewhere += st.windows_pruned;
    }
    EXPECT_GT(pruned_somewhere, 0u) << "the sweep never exercised the pruning path";
}

TEST(KernelStats, EqualPathCountsFastPathHits) {
    kernel::stats st;
    const byte_vector a{1, 2, 3, 4};
    const byte_vector b{4, 3, 2, 1};
    kernel::sliding_dissimilarity(a, b, &st);
    kernel::equal_dissimilarity(a, b, &st);
    EXPECT_EQ(st.invocations, 2u);
    EXPECT_EQ(st.equal_fast_path, 2u);
    EXPECT_EQ(st.windows_total, 0u);
}

TEST(KernelBatch, EqualBatchBitwiseMatchesSingleCalls) {
    rng rand(23);
    for (int trial = 0; trial < 48; ++trial) {
        const std::size_t m = 1 + static_cast<std::size_t>(rand.uniform(0, 63));
        const byte_vector x = rand.bytes(m);
        // Cycle through every batch size so partial and full batches (the
        // eight-chain fast loop) are both exercised.
        const std::size_t count = static_cast<std::size_t>(trial) % kernel::kEqualBatch + 1;
        std::vector<byte_vector> partners;
        for (std::size_t k = 0; k < count; ++k) {
            partners.push_back(rand.bytes(m));
        }
        if (trial % 4 == 0) {
            std::fill(partners[0].begin(), partners[0].end(), std::uint8_t{0});
        }
        std::vector<byte_view> views(partners.begin(), partners.end());
        double out[kernel::kEqualBatch];
        kernel::stats st;
        kernel::equal_dissimilarity_batch(x, views.data(), count, out, &st);
        EXPECT_EQ(st.invocations, count);
        EXPECT_EQ(st.equal_fast_path, count);
        for (std::size_t k = 0; k < count; ++k) {
            ASSERT_TRUE(same_bits(out[k], canberra_dissimilarity(x, partners[k])))
                << "lane " << k << " m=" << m << " count=" << count;
        }
    }
}

TEST(KernelBatch, SlidingBatchBitwiseMatchesSingleCalls) {
    rng rand(29);
    for (int trial = 0; trial < 48; ++trial) {
        const byte_vector a = rand.bytes(1 + static_cast<std::size_t>(rand.uniform(0, 31)));
        const std::size_t count = static_cast<std::size_t>(trial) % kernel::kSlideBatch + 1;
        // Mixed-length partners: shorter, equal (falls through to the equal
        // path) and longer than a, as the matrix's sliding batches see.
        std::vector<byte_vector> partners;
        for (std::size_t k = 0; k < count; ++k) {
            partners.push_back(k % 3 == 0
                                   ? rand.bytes(a.size())
                                   : rand.bytes(1 + static_cast<std::size_t>(
                                                        rand.uniform(0, 63))));
        }
        std::vector<byte_view> views(partners.begin(), partners.end());
        double out[kernel::kSlideBatch];
        kernel::stats st;
        kernel::sliding_dissimilarity_batch(a, views.data(), count, out, &st);
        EXPECT_EQ(st.invocations, count);
        for (std::size_t k = 0; k < count; ++k) {
            ASSERT_TRUE(same_bits(out[k], sliding_canberra_dissimilarity(a, partners[k])))
                << "lane " << k << " |a|=" << a.size() << " |b|=" << partners[k].size();
        }
    }
}

TEST(KernelBatch, Preconditions) {
    const byte_vector x{1, 2, 3};
    byte_view views[kernel::kEqualBatch];
    for (byte_view& v : views) {
        v = byte_view{x};
    }
    double out[kernel::kEqualBatch];
    EXPECT_THROW(kernel::equal_dissimilarity_batch(x, views, 0, out), precondition_error);
    EXPECT_THROW(kernel::equal_dissimilarity_batch(x, views, kernel::kEqualBatch + 1, out),
                 precondition_error);
    EXPECT_THROW(kernel::sliding_dissimilarity_batch(x, views, 0, out), precondition_error);
    EXPECT_THROW(
        kernel::sliding_dissimilarity_batch(x, views, kernel::kSlideBatch + 1, out),
        precondition_error);
    const byte_vector shorter{7, 8};
    views[kernel::kEqualBatch - 1] = byte_view{shorter};
    EXPECT_THROW(kernel::equal_dissimilarity_batch(x, views, kernel::kEqualBatch, out),
                 precondition_error);
}

// The sliding loops read up to seven windows ahead in one step; a window
// that starts past the last legal offset must never be summed. Each longer
// segment is a prefix view of a buffer whose bytes just past its end,
// together with its tail, form a perfect copy of the shorter segment — so
// any phantom window would win with d_min = 0, while the reference (which
// never looks past the view) sees only the imperfect legal windows.
TEST(KernelBounds, NoWindowReadsPastTheLongerSegment) {
    rng rand(31);
    for (std::size_t m = 1; m <= 40; m += 3) {
        for (std::size_t slide = 1; slide <= 20; ++slide) {
            for (std::size_t past = 1; past <= 7; ++past) {
                const std::size_t n = m + slide;
                const byte_vector buffer = rand.bytes(n + past);
                // The phantom window starts `past` offsets after the last
                // legal one, n - m, and ends where the buffer does.
                const std::size_t phantom = n - m + past;
                const byte_vector s(buffer.begin() + static_cast<std::ptrdiff_t>(phantom),
                                    buffer.end());
                const byte_view l(buffer.data(), n);
                ASSERT_TRUE(same_bits(kernel::sliding_dissimilarity(s, l),
                                      sliding_canberra_dissimilarity(s, l)))
                    << "m=" << m << " slide=" << slide << " past=" << past;
            }
        }
    }
}

// kernel::batcher is the one place pairs are batched for the matrix build
// and the sparse engine. Random rows of 0–17 partners mix equal-length and
// sliding pairs, so queues run full mid-row, are left partial for flush(),
// or end the row exactly full (each queue a multiple of 8 long).
TEST(KernelBatcher, EveryKeyReachesTheSinkOnceWithTheReferenceValue) {
    rng rand(37);
    std::size_t rows_with_full_batches = 0;
    std::size_t rows_with_partial_flushes = 0;
    std::size_t rows_flushing_nothing = 0;
    for (int row = 0; row < 400; ++row) {
        const byte_vector a = rand.bytes(1 + static_cast<std::size_t>(rand.uniform(0, 23)));
        const std::size_t partners = static_cast<std::size_t>(rand.uniform(0, 17));
        const double equal_share = (row % 3) * 0.5;  // all sliding, mixed, all equal
        std::vector<byte_vector> values;
        std::vector<std::size_t> keys;
        for (std::size_t k = 0; k < partners; ++k) {
            std::size_t len = a.size();
            if (!rand.chance(equal_share)) {
                while (len == a.size()) {
                    len = 1 + static_cast<std::size_t>(rand.uniform(0, 47));
                }
            }
            values.push_back(rand.bytes(len));
            keys.push_back(static_cast<std::size_t>(rand()));
        }

        kernel::stats batched;
        kernel::batcher batch(a, &batched);
        std::map<std::size_t, float> seen;
        const auto sink = [&](std::size_t key, float f) {
            EXPECT_TRUE(seen.emplace(key, f).second) << "key " << key << " delivered twice";
        };
        for (std::size_t k = 0; k < partners; ++k) {
            batch.add(keys[k], values[k], sink);
        }
        const std::size_t during_add = seen.size();
        batch.flush(sink);
        batch.flush([](std::size_t, float) { ADD_FAILURE() << "flush left a pair pending"; });

        kernel::stats single;
        ASSERT_EQ(seen.size(), partners) << "row " << row;
        for (std::size_t k = 0; k < partners; ++k) {
            const auto it = seen.find(keys[k]);
            ASSERT_NE(it, seen.end()) << "row " << row << " key " << keys[k] << " lost";
            const float expected =
                static_cast<float>(sliding_canberra_dissimilarity(a, values[k]));
            ASSERT_EQ(std::memcmp(&it->second, &expected, sizeof(float)), 0)
                << "row " << row << " partner " << k;
            kernel::sliding_dissimilarity(a, values[k], &single);
        }
        EXPECT_EQ(batched.invocations, single.invocations) << "row " << row;
        EXPECT_EQ(batched.equal_fast_path, single.equal_fast_path) << "row " << row;
        EXPECT_EQ(batched.windows_total, single.windows_total) << "row " << row;
        EXPECT_EQ(batched.windows_pruned, single.windows_pruned) << "row " << row;

        rows_with_full_batches += during_add > 0 ? 1 : 0;
        rows_with_partial_flushes += seen.size() > during_add ? 1 : 0;
        rows_flushing_nothing += partners > 0 && seen.size() == during_add ? 1 : 0;
    }
    EXPECT_GT(rows_with_full_batches, 0u);
    EXPECT_GT(rows_with_partial_flushes, 0u);
    EXPECT_GT(rows_flushing_nothing, 0u) << "no row filled its queues exactly";
}

/// Unique >= 2-byte segment values of a ground-truth-segmented trace.
std::vector<byte_vector> unique_values(const std::string& protocol, std::size_t messages) {
    const protocols::trace trace = protocols::generate_trace(protocol, messages, kSeed);
    const auto bytes = segmentation::message_bytes(trace);
    return condense(bytes, segmentation::segments_from_annotations(trace)).values;
}

/// The matrix of \p values assembled from reference cells (canberra.cpp,
/// narrowed to f32 like every stored cell) through from_upper.
dissimilarity_matrix reference_matrix(const std::vector<byte_vector>& values) {
    std::vector<float> upper;
    for (std::size_t i = 0; i < values.size(); ++i) {
        for (std::size_t j = i + 1; j < values.size(); ++j) {
            upper.push_back(
                static_cast<float>(sliding_canberra_dissimilarity(values[i], values[j])));
        }
    }
    return dissimilarity_matrix::from_upper(upper, values.size());
}

TEST(KernelMatrix, MatchesReferenceCellsInBothLayoutsAndThreadCounts) {
    for (const std::string protocol : {"DNS", "DHCP"}) {
        const std::vector<byte_vector> values = unique_values(protocol, 70);
        ASSERT_GE(values.size(), 10u) << protocol;
        const dissimilarity_matrix reference = reference_matrix(values);
        const std::vector<float> reference_upper = reference.upper_triangle_f32();
        for (const layout storage : {layout::dense, layout::triangular}) {
            for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
                build_options opts;
                opts.storage = storage;
                opts.threads = threads;
                const dissimilarity_matrix m(values, opts);
                ASSERT_EQ(m.size(), reference.size());
                const std::vector<float> upper = m.upper_triangle_f32();
                ASSERT_EQ(upper.size(), reference_upper.size());
                EXPECT_EQ(std::memcmp(upper.data(), reference_upper.data(),
                                      upper.size() * sizeof(float)),
                          0)
                    << protocol << ": layout " << static_cast<int>(storage) << "@" << threads;
                if (storage == layout::dense) {
                    EXPECT_EQ(std::memcmp(m.data().data(), reference.data().data(),
                                          reference.data().size_bytes()),
                              0)
                        << protocol << ": dense@" << threads;
                }
            }
        }
    }
}

TEST(KernelMatrix, KthNnManyBitwiseMatchesPerKExtraction) {
    const std::vector<byte_vector> values = unique_values("DNS", 70);
    const dissimilarity_matrix m(values, {}, 1);
    const std::size_t k_max = 6;
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        const auto curves = m.kth_nn_many(k_max, threads);
        ASSERT_EQ(curves.size(), k_max);
        for (std::size_t k = 1; k <= k_max; ++k) {
            const std::vector<double> single = m.kth_nn(k, 1);
            ASSERT_EQ(curves[k - 1].size(), single.size());
            EXPECT_EQ(std::memcmp(curves[k - 1].data(), single.data(),
                                  single.size() * sizeof(double)),
                      0)
                << "k=" << k << " threads=" << threads;
        }
    }
}

TEST(KernelMatrix, KthNnManyDegenerateSizes) {
    const dissimilarity_matrix empty(std::vector<byte_vector>{}, {}, 1);
    const auto none = empty.kth_nn_many(3);
    ASSERT_EQ(none.size(), 3u);
    for (const auto& curve : none) {
        EXPECT_TRUE(curve.empty());
    }
    EXPECT_THROW(empty.kth_nn_many(0), precondition_error);
    // k_max beyond n-1 clamps like kth_nn does.
    const std::vector<byte_vector> values{{1, 2}, {200, 9}, {1, 3}};
    const dissimilarity_matrix m(values, {}, 1);
    const auto curves = m.kth_nn_many(10);
    ASSERT_EQ(curves.size(), 10u);
    for (std::size_t k = 3; k <= 10; ++k) {
        EXPECT_EQ(curves[k - 1], curves[1]) << "k=" << k << " should clamp to n-1=2";
    }
}

TEST(KernelPipeline, FinalClusteringMatchesReferenceMatrixRun) {
    const segmentation::nemesys_segmenter segmenter;
    const protocols::trace trace = protocols::generate_trace("DNS", 60, kSeed);
    const auto messages = segmentation::message_bytes(trace);

    core::pipeline_options options;
    options.threads = 1;
    const core::pipeline_result kernel_run = core::analyze(messages, segmenter, options);

    // The same run with its matrix stage replaced by reference cells.
    core::pipeline_seed seed;
    seed.segments = kernel_run.segments;
    seed.unique = kernel_run.unique;
    seed.matrix = reference_matrix(kernel_run.unique.values);
    const core::pipeline_result reference =
        core::analyze_seeded(messages, &segmenter, std::move(seed), options);

    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        options.threads = threads;
        const core::pipeline_result r = core::analyze(messages, segmenter, options);
        EXPECT_EQ(r.final_labels.labels, reference.final_labels.labels) << "@" << threads;
        EXPECT_EQ(r.clustering.config.epsilon, reference.clustering.config.epsilon)
            << "@" << threads;
        EXPECT_EQ(r.clustering.config.min_samples, reference.clustering.config.min_samples)
            << "@" << threads;
    }
}

}  // namespace
}  // namespace ftc::dissim
