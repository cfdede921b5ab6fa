/// \file fuzz_ckpt_load.cpp
/// Fuzz target for checkpoint loading: arbitrary bytes through the ckpt
/// wire-format decoders and checkpoint_manager::load.
///
/// The corpus is one file of every kind (segments, neighbors, clustering),
/// and each must restore its stage unmutated before fuzzing starts, so a
/// corpus the loader no longer accepts cannot silently fuzz only the
/// rejection path. Five input families per iteration, all derived from a
/// seeded ftc::rng so every run is reproducible:
///   1. pure random bytes (usually not even the FTCKPT01 magic),
///   2. a valid checkpoint file with random bit flips
///      (ftc::testing::flip_random_bits — the per-section digests must
///      catch every one of them),
///   3. a valid checkpoint file truncated at a random byte,
///   4. a valid checkpoint file with random single-byte mutations anywhere
///      (including the magic, version and section headers),
///   5. a valid checkpoint file whose payload bytes (past the fingerprint)
///      are mutated or truncated and then re-digested, so the damage gets
///      past the container and the payload decoders must reject it.
/// The invariant under test: a checkpoint load never crashes, never reads
/// out of bounds (run under ASan/UBSan in CI) and never allocates from a
/// forged section count — damaged input is only ever *rejected*, by
/// throwing ftc::parse_error from the decoders or by lenient quarantine
/// through checkpoint_manager::load. Registered in ctest as a fixed-seed
/// smoke run.
///
/// Usage: fuzz_ckpt_load [iterations] [seed]
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <numeric>
#include <string>

#include "ckpt/manager.hpp"
#include "core/pipeline.hpp"
#include "dissim/sparse.hpp"
#include "protocols/registry.hpp"
#include "testing/corrupter.hpp"
#include "testing/temp_path.hpp"
#include "util/rng.hpp"

namespace {

using namespace ftc;
namespace fs = std::filesystem;

/// Surviving indices of a segmentation that quarantined no message.
std::vector<std::size_t> every_index(std::size_t n) {
    std::vector<std::size_t> out(n);
    std::iota(out.begin(), out.end(), std::size_t{0});
    return out;
}

/// Feed \p bytes straight into the section container and payload decoders.
/// Returns a label for the outcome tally.
const char* decode(byte_view bytes) {
    try {
        const std::vector<ckpt::section> sections = ckpt::decode_sections(bytes);
        // A container that survived its digests still carries payloads of
        // every kind; each payload decoder must hold the same no-crash
        // invariant on its own.
        for (const ckpt::section& s : sections) {
            try {
                switch (static_cast<ckpt::section_id>(s.id)) {
                    case ckpt::section_id::fingerprint:
                        (void)ckpt::decode_fingerprint(byte_view{s.payload});
                        break;
                    case ckpt::section_id::segments:
                        (void)ckpt::decode_segments(byte_view{s.payload});
                        break;
                    case ckpt::section_id::unique:
                        (void)ckpt::decode_unique(byte_view{s.payload});
                        break;
                    case ckpt::section_id::neighbors:
                        (void)ckpt::decode_neighbors(byte_view{s.payload});
                        break;
                    case ckpt::section_id::clustering:
                        (void)ckpt::decode_clustering(byte_view{s.payload});
                        break;
                    default:
                        break;  // unknown section ids are a loader concern
                }
            } catch (const parse_error&) {
                return "payload-rejected";
            }
        }
        return "decoded";
    } catch (const parse_error&) {
        return "rejected";
    }
}

/// Plant \p bytes as \p filename inside \p dir and run a full lenient
/// checkpoint_manager::load against it. \p stages, when given, receives
/// the stages it restored.
const char* load_planted(const fs::path& dir, const char* filename, byte_view bytes,
                         const ckpt::options_fingerprint& fp,
                         const std::vector<byte_vector>& messages,
                         std::vector<std::string>* stages = nullptr) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    {
        std::ofstream out(dir / filename, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char*>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
    }
    ckpt::checkpoint_manager manager(dir, fp);
    diag::error_sink sink(diag::policy::lenient);
    const ckpt::restored_state restored = manager.load(messages, sink);
    if (stages != nullptr) {
        *stages = restored.stages;
    }
    if (sink.quarantined() > 0) {
        return "quarantined";
    }
    return restored.stages.empty() ? "ignored" : "restored";
}

}  // namespace

int main(int argc, char** argv) {
    const std::size_t iterations =
        argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 300;
    const std::uint64_t seed = argc > 2 ? static_cast<std::uint64_t>(std::atoll(argv[2])) : 7;

    try {
        rng rand(seed);

        // Real checkpoints as the mutation corpus: every file kind. A
        // genuine pipeline run writes the segments and clustering snapshots
        // (the capture is small, so it builds the matrix, which is never
        // persisted); the sparse engine over the same unique values
        // supplies the neighbor lists every memory-pressured or large run
        // writes.
        const protocols::trace t = protocols::generate_trace("DNS", 40, 5);
        const std::vector<byte_vector> messages = segmentation::message_bytes(t);
        const segmentation::message_segments segments =
            segmentation::segments_from_annotations(t);
        const core::pipeline_options options;
        const ckpt::options_fingerprint fp = ckpt::fingerprint(options, "true", 5);
        const fs::path base_dir = testing::temp_path("ftc_fuzz_ckpt_base");
        fs::remove_all(base_dir);
        {
            ckpt::checkpoint_manager manager(base_dir, fp);
            manager.on_segments(segments, every_index(messages.size()));
            core::pipeline_options opt = options;
            opt.observer = &manager;
            core::pipeline_seed pseed;
            pseed.segments = segments;
            const core::pipeline_result run =
                core::analyze_seeded(messages, nullptr, std::move(pseed), opt);
            dissim::sparse_build_options sopts;
            sopts.knn_cap = cluster::knn_k_max(run.unique.size());
            const dissim::sparse_neighborhood sparse(run.unique.values, sopts);
            manager.on_neighbors(run.unique, sparse.capped(),
                                 sparse.kth_nn_many(sopts.knn_cap));
            manager.mark_complete();
        }
        const char* kFiles[] = {ckpt::checkpoint_manager::kSegmentsFile,
                                ckpt::checkpoint_manager::kNeighborsFile,
                                ckpt::checkpoint_manager::kClusteringFile};
        const char* kStages[] = {"segmentation", "dissimilarity", "clustering"};
        constexpr std::size_t kFileKinds = std::size(kFiles);
        const fs::path fuzz_dir = testing::temp_path("ftc_fuzz_ckpt_load");
        byte_vector base[kFileKinds];
        for (std::size_t f = 0; f < kFileKinds; ++f) {
            std::ifstream in(base_dir / kFiles[f], std::ios::binary);
            base[f].assign(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
            std::vector<std::string> stages;
            load_planted(fuzz_dir, kFiles[f], byte_view{base[f]}, fp, messages, &stages);
            if (stages != std::vector<std::string>{kStages[f]}) {
                std::fprintf(stderr, "error: corpus file %s does not restore %s\n", kFiles[f],
                             kStages[f]);
                return 1;
            }
        }

        std::size_t decoded = 0;
        std::size_t rejected = 0;
        std::size_t restored = 0;
        std::size_t quarantined = 0;
        for (std::size_t i = 0; i < iterations; ++i) {
            const std::size_t f = rand.uniform(0, kFileKinds - 1);
            byte_vector input;
            switch (rand.uniform(0, 4)) {
                case 0:
                    input = rand.bytes(rand.uniform(0, 600));
                    break;
                case 1:
                    input = testing::flip_random_bits(byte_view{base[f]},
                                                      rand.uniform(1, 32), rand());
                    break;
                case 2:
                    input = base[f];
                    input.resize(rand.uniform(0, input.size()));
                    break;
                case 3: {
                    input = base[f];
                    const std::size_t mutations = rand.uniform(1, 24);
                    for (std::size_t m = 0; m < mutations && !input.empty(); ++m) {
                        input[rand.uniform(0, input.size() - 1)] = rand.byte();
                    }
                    break;
                }
                default: {
                    // Every corpus file holds the fingerprint and at least
                    // one payload section behind it.
                    std::vector<ckpt::section> sections =
                        ckpt::decode_sections(byte_view{base[f]});
                    byte_vector& payload =
                        sections[rand.uniform(1, sections.size() - 1)].payload;
                    if (rand.chance(0.5)) {
                        payload.resize(rand.uniform(0, payload.size()));
                    }
                    const std::size_t mutations = rand.uniform(1, 8);
                    for (std::size_t m = 0; m < mutations && !payload.empty(); ++m) {
                        payload[rand.uniform(0, payload.size() - 1)] = rand.byte();
                    }
                    input = ckpt::encode_sections(sections);
                    break;
                }
            }

            const char* outcome = decode(byte_view{input});
            if (outcome[0] == 'd') {
                ++decoded;
            } else {
                ++rejected;
            }
            outcome = load_planted(fuzz_dir, kFiles[f], byte_view{input}, fp, messages);
            if (outcome[0] == 'q') {
                ++quarantined;
            } else if (outcome[0] == 'r') {
                ++restored;
            }
        }
        fs::remove_all(base_dir);
        fs::remove_all(fuzz_dir);
        std::printf("fuzz_ckpt_load: %zu iterations, %zu decoded, %zu rejected, "
                    "%zu restored, %zu quarantined, 0 crashes\n",
                    iterations, decoded, rejected, restored, quarantined);
        return 0;
    } catch (const error& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
