// Unit tests for segment condensation and the dissimilarity matrix
// (dissim/matrix.hpp).
#include "dissim/matrix.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "dissim/canberra.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace ftc::dissim {
namespace {

using segmentation::segment;

TEST(Condense, DeduplicatesValuesAndCountsOccurrences) {
    const std::vector<byte_vector> messages{
        {0x01, 0x02, 0x01, 0x02},
        {0x01, 0x02, 0x09, 0x09},
    };
    const segmentation::message_segments segs{
        {{0, 0, 2}, {0, 2, 2}},
        {{1, 0, 2}, {1, 2, 2}},
    };
    const unique_segments u = condense(messages, segs);
    ASSERT_EQ(u.size(), 2u);
    // Value {01,02} occurs three times, {09,09} once.
    std::size_t total = 0;
    bool found_triple = false;
    for (std::size_t i = 0; i < u.size(); ++i) {
        total += u.occurrences[i].size();
        if (u.values[i] == byte_vector{0x01, 0x02}) {
            EXPECT_EQ(u.occurrences[i].size(), 3u);
            found_triple = true;
        }
    }
    EXPECT_TRUE(found_triple);
    EXPECT_EQ(total, 4u);
    EXPECT_EQ(u.short_segments, 0u);
}

TEST(Condense, ExcludesShortSegments) {
    const std::vector<byte_vector> messages{{0xaa, 0x01, 0x02}};
    const segmentation::message_segments segs{
        {{0, 0, 1}, {0, 1, 2}},
    };
    const unique_segments u = condense(messages, segs, 2);
    EXPECT_EQ(u.size(), 1u);
    EXPECT_EQ(u.short_segments, 1u);
    EXPECT_EQ(u.values[0], (byte_vector{0x01, 0x02}));
}

TEST(Condense, MinLengthConfigurable) {
    const std::vector<byte_vector> messages{{0xaa, 0x01, 0x02}};
    const segmentation::message_segments segs{
        {{0, 0, 1}, {0, 1, 2}},
    };
    const unique_segments u = condense(messages, segs, 1);
    EXPECT_EQ(u.size(), 2u);
    EXPECT_EQ(u.short_segments, 0u);
}

TEST(Condense, AllShortSegmentsYieldEmptyResult) {
    const std::vector<byte_vector> messages{{0x01, 0x02, 0x03}};
    const segmentation::message_segments segs{
        {{0, 0, 1}, {0, 1, 1}, {0, 2, 1}},
    };
    const unique_segments u = condense(messages, segs, 2);
    EXPECT_EQ(u.size(), 0u);
    EXPECT_TRUE(u.values.empty());
    EXPECT_TRUE(u.occurrences.empty());
    EXPECT_EQ(u.short_segments, 3u);
}

TEST(Condense, DuplicateOnlyTraceCondensesToOneValue) {
    // Every message carries the same two-byte value: one unique segment,
    // with one occurrence per concrete appearance.
    const std::vector<byte_vector> messages{
        {0xca, 0xfe, 0xca, 0xfe},
        {0xca, 0xfe},
        {0xca, 0xfe},
    };
    const segmentation::message_segments segs{
        {{0, 0, 2}, {0, 2, 2}},
        {{1, 0, 2}},
        {{2, 0, 2}},
    };
    const unique_segments u = condense(messages, segs);
    ASSERT_EQ(u.size(), 1u);
    EXPECT_EQ(u.values[0], (byte_vector{0xca, 0xfe}));
    EXPECT_EQ(u.occurrences[0].size(), 4u);
    EXPECT_EQ(u.short_segments, 0u);
}

TEST(Condense, EmptySegmentationYieldsEmptyResult) {
    const std::vector<byte_vector> messages{{0x01, 0x02}};
    const unique_segments u = condense(messages, segmentation::message_segments{});
    EXPECT_EQ(u.size(), 0u);
    EXPECT_EQ(u.short_segments, 0u);
}

TEST(Matrix, SymmetricWithZeroDiagonal) {
    const std::vector<byte_vector> values{{1, 2}, {3, 4}, {1, 2, 3}};
    const dissimilarity_matrix m(values);
    ASSERT_EQ(m.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_DOUBLE_EQ(m.at(i, i), 0.0);
        for (std::size_t j = 0; j < 3; ++j) {
            EXPECT_DOUBLE_EQ(m.at(i, j), m.at(j, i));
        }
    }
}

TEST(Matrix, EntriesMatchDirectComputation) {
    const std::vector<byte_vector> values{{1, 2}, {3, 4}, {1, 2, 3}};
    const dissimilarity_matrix m(values);
    for (std::size_t i = 0; i < values.size(); ++i) {
        for (std::size_t j = 0; j < values.size(); ++j) {
            const double expected =
                i == j ? 0.0
                       : sliding_canberra_dissimilarity(values[i], values[j]);
            EXPECT_NEAR(m.at(i, j), expected, 1e-6);
        }
    }
}

TEST(Matrix, KthNnMatchesBruteForce) {
    rng rand(5);
    std::vector<byte_vector> values;
    for (int i = 0; i < 20; ++i) {
        values.push_back(rand.bytes(2 + rand.uniform(0, 6)));
    }
    const dissimilarity_matrix m(values);
    for (std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{5}}) {
        const std::vector<double> knn = m.kth_nn(k);
        ASSERT_EQ(knn.size(), values.size());
        for (std::size_t i = 0; i < values.size(); ++i) {
            std::vector<double> row;
            for (std::size_t j = 0; j < values.size(); ++j) {
                if (j != i) {
                    row.push_back(m.at(i, j));
                }
            }
            std::sort(row.begin(), row.end());
            EXPECT_NEAR(knn[i], row[k - 1], 1e-9) << "i=" << i << " k=" << k;
        }
    }
}

TEST(Matrix, RowViewsHoldEveryCell) {
    // row(i) is what DBSCAN's bit rows are marked from: every cell of the
    // row in column order, the zero diagonal included.
    rng rand(11);
    std::vector<byte_vector> values;
    for (int i = 0; i < 67; ++i) {
        values.push_back(rand.bytes(2 + rand.uniform(0, 6)));
    }
    const dissimilarity_matrix dense(values);
    for (std::size_t i = 0; i < values.size(); ++i) {
        const float* row = dense.row(i);
        for (std::size_t j = 0; j < values.size(); ++j) {
            ASSERT_EQ(static_cast<double>(row[j]), dense.at(i, j)) << i << "," << j;
        }
    }
}

TEST(Matrix, KthNnClampsLargeK) {
    const std::vector<byte_vector> values{{1, 2}, {3, 4}, {5, 6}};
    const dissimilarity_matrix m(values);
    const std::vector<double> knn = m.kth_nn(99);
    ASSERT_EQ(knn.size(), 3u);  // clamped to k = n-1 = 2
}

TEST(Matrix, KthNnRejectsZeroK) {
    const std::vector<byte_vector> values{{1, 2}, {3, 4}};
    const dissimilarity_matrix m(values);
    EXPECT_THROW(m.kth_nn(0), precondition_error);
}

TEST(Matrix, KthNnOnTinyMatrixIsEmpty) {
    const std::vector<byte_vector> one{{1, 2}};
    const dissimilarity_matrix m(one);
    EXPECT_TRUE(m.kth_nn(1).empty());
}

TEST(Matrix, EmptyInputGivesEmptyMatrix) {
    const std::vector<byte_vector> none;
    const dissimilarity_matrix m(none);
    EXPECT_EQ(m.size(), 0u);
    EXPECT_TRUE(m.data().empty());
    EXPECT_TRUE(m.kth_nn(1).empty());
    EXPECT_TRUE(m.kth_nn(5).empty());
    EXPECT_TRUE(m.upper_triangle().empty());
}

TEST(Matrix, KthNnOnSingleElementIsEmptyForAnyK) {
    const std::vector<byte_vector> one{{1, 2}};
    const dissimilarity_matrix m(one);
    EXPECT_TRUE(m.kth_nn(1).empty());
    EXPECT_TRUE(m.kth_nn(2).empty());  // k == n
    EXPECT_TRUE(m.kth_nn(10).empty());
}

TEST(Matrix, KthNnOnTwoElements) {
    // With n = 2 the only neighbour is the other element; every k >= n-1
    // clamps to it.
    const std::vector<byte_vector> values{{1, 2}, {9, 9}};
    const dissimilarity_matrix m(values);
    const double expected = m.at(0, 1);
    ASSERT_GT(expected, 0.0);
    for (std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
        const std::vector<double> knn = m.kth_nn(k);
        ASSERT_EQ(knn.size(), 2u) << "k=" << k;
        EXPECT_DOUBLE_EQ(knn[0], expected);
        EXPECT_DOUBLE_EQ(knn[1], expected);
    }
}

TEST(Matrix, KthNnKEqualToNClampsToFurthestNeighbour) {
    const std::vector<byte_vector> values{{1, 2}, {3, 4}, {200, 200}};
    const dissimilarity_matrix m(values);
    const std::vector<double> clamped = m.kth_nn(values.size());  // k = n -> n-1
    const std::vector<double> furthest = m.kth_nn(values.size() - 1);
    ASSERT_EQ(clamped.size(), values.size());
    EXPECT_EQ(clamped, furthest);
}

TEST(Matrix, UpperTriangleHasExpectedSize) {
    const std::vector<byte_vector> values{{1, 2}, {3, 4}, {5, 6}, {7, 8}};
    const dissimilarity_matrix m(values);
    const std::vector<double> tri = m.upper_triangle();
    EXPECT_EQ(tri.size(), 6u);
    for (double d : tri) {
        EXPECT_GE(d, 0.0);
        EXPECT_LE(d, 1.0);
    }
}

TEST(Matrix, DeadlineAborts) {
    rng rand(1);
    std::vector<byte_vector> values;
    for (int i = 0; i < 600; ++i) {
        values.push_back(rand.bytes(16));
    }
    const deadline expired(0.0);
    EXPECT_THROW(dissimilarity_matrix(values, expired), budget_exceeded_error);
}

}  // namespace
}  // namespace ftc::dissim
