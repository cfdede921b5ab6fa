#include "core/pipeline.hpp"

#include <numeric>
#include <optional>

#include "dissim/sparse.hpp"
#include "mem/mem.hpp"
#include "obs/obs.hpp"
#include "util/budget.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace ftc::core {

namespace {

resource_budget make_budget(const pipeline_options& options) {
    resource_limits limits;
    limits.deadline_seconds = options.budget_seconds;
    limits.max_segments = options.max_segments;
    limits.max_bytes = options.max_bytes;
    limits.max_memory = options.max_memory;
    return resource_budget(limits);
}

/// Rethrow \p e with a partial-progress report naming the pipeline stage
/// that was running and how much work had been done by then. The dynamic
/// type is preserved: a stop request must still surface as
/// ftc::interrupted_error so callers can tell it from a tripped deadline.
[[noreturn]] void rethrow_with_progress(const budget_exceeded_error& e, const char* stage,
                                        const resource_budget& budget,
                                        std::size_t unique_segments) {
    // The counters in this report are the same values the budget already
    // published into the obs registry at charge time (see
    // resource_budget::charge_*); mirror the stage marker there too so the
    // manifest and this message describe one run from one source.
    obs::gauge_set("pipeline.unique_segments", static_cast<double>(unique_segments));
    std::string partial = e.partial_report();
    if (partial.empty()) {
        partial = budget.progress();
    }
    partial += message("; reached stage ", stage);
    if (unique_segments > 0) {
        partial += message(" with ", unique_segments, " unique segments");
    }
    if (dynamic_cast<const interrupted_error*>(&e) != nullptr) {
        throw interrupted_error(e.what(), std::move(partial));
    }
    // Memory pressure keeps its own type too: the CLI maps it to the
    // memory-exceeded manifest status, and callers retrying with a larger
    // --max-memory need to tell it from a tripped deadline.
    if (dynamic_cast<const memory_budget_exceeded_error*>(&e) != nullptr) {
        throw memory_budget_exceeded_error(e.what(), std::move(partial));
    }
    throw budget_exceeded_error(e.what(), std::move(partial));
}

}  // namespace

pipeline_result analyze_seeded(const std::vector<byte_vector>& messages,
                               const segmentation::segmenter* segmenter, pipeline_seed seed,
                               const pipeline_options& options, diag::error_sink& sink) {
    expects(!messages.empty(), "analyze: empty trace");
    const stopwatch watch;
    resource_budget budget = make_budget(options);
    const deadline& dl = budget.wall_clock();
    stage_observer* hook = options.observer;

    // The max_memory axis is enforced by a governor, not by charge calls on
    // the budget object: tracked allocations happen deep inside stages and
    // libraries, and the governor catches all of them. An already-active
    // governor (installed by the CLI, or a nesting caller) wins — the
    // innermost scope is the one the analyst configured most recently.
    std::optional<mem::governor> governor;
    if (options.max_memory > 0 && mem::governor::active() == nullptr) {
        governor.emplace(options.max_memory);
    }

    pipeline_result result;
    // The messages result.segments indexes: the input itself, or the
    // survivors when lenient segmentation quarantined some of them.
    std::vector<byte_vector> kept;
    const std::vector<byte_vector>* segmented = &messages;

    const char* stage = "segmentation";
    try {
        // Segmentation: adopt the seeded segmentation, or run the segmenter
        // under the run's budget, quarantining per message into the sink.
        if (seed.segments.has_value()) {
            result.segments = std::move(*seed.segments);
            result.surviving.resize(messages.size());
            std::iota(result.surviving.begin(), result.surviving.end(), std::size_t{0});
        } else {
            expects(segmenter != nullptr,
                    "analyze_seeded: need a segmenter when no segmentation is seeded");
            segmentation::lenient_segmentation out =
                segmentation::segment_lenient(*segmenter, messages, dl, sink);
            expects(!out.messages.empty(), "analyze: empty trace");
            if (out.messages.size() < messages.size()) {
                kept = std::move(out.messages);
                segmented = &kept;
            }
            result.surviving = std::move(out.surviving);
            result.segments = std::move(out.segments);
            if (hook != nullptr) {
                hook->on_segments(result.segments, result.surviving);
            }
        }

        stage = "dissimilarity";
        std::size_t total_bytes = 0;
        std::size_t total_segments = 0;
        for (const byte_vector& m : *segmented) {
            total_bytes += m.size();
        }
        for (const auto& segs : result.segments) {
            total_segments += segs.size();
        }
        budget.charge_bytes(total_bytes, "pipeline");
        budget.charge_segments(total_segments, "pipeline");

        // Dissimilarity stage: unique >=2-byte segments, pairwise matrix,
        // and (when observed or seeded) the batched k-NN curves the epsilon
        // sweep consumes — computed once here and handed both to the
        // observer's snapshot and to auto-configuration below, so a
        // checkpointed run does the extraction exactly as often as a plain
        // one.
        const std::size_t threads = util::resolve_threads(options.threads);
        std::optional<dissim::dissimilarity_matrix> matrix_storage;
        std::optional<dissim::sparse_neighborhood> sparse_storage;
        std::vector<std::vector<double>> knn_curves;
        if (seed.unique.has_value() && seed.matrix.has_value()) {
            result.unique = std::move(*seed.unique);
            matrix_storage.emplace(std::move(*seed.matrix));
            if (seed.knn_curves.has_value()) {
                knn_curves = std::move(*seed.knn_curves);
            }
            obs::gauge_set("pipeline.unique_segments",
                           static_cast<double>(result.unique.size()));
        } else if (seed.unique.has_value() && seed.neighbors.has_value()) {
            // Sparse-mode snapshot: adopt the capped lists verbatim (the
            // adopt constructor revalidates shape; the ckpt decoder already
            // enforced the deep invariants). The adopted source serves the
            // same bits a fresh build would, so the resumed run is
            // byte-identical — regardless of the mode this run requested.
            result.unique = std::move(*seed.unique);
            sparse_storage.emplace(result.unique.values, std::move(*seed.neighbors));
            if (seed.knn_curves.has_value()) {
                knn_curves = std::move(*seed.knn_curves);
            }
            obs::gauge_set("pipeline.unique_segments",
                           static_cast<double>(result.unique.size()));
        } else {
            obs::span sp("dissimilarity");
            // Degradation rung 1 — weighted condensation. The full form
            // materializes one segment struct per concrete segment; project
            // that storage against the governor and, when it would not fit,
            // keep only per-value multiplicities. values (and therefore the
            // matrix and the clustering) are bitwise identical either way.
            const std::uint64_t occurrence_bytes =
                static_cast<std::uint64_t>(total_segments) * sizeof(segmentation::segment);
            const bool elide = mem::would_exceed(occurrence_bytes);
            result.unique =
                elide ? dissim::condense_weighted(*segmented, result.segments,
                                                  options.min_segment_length)
                      : dissim::condense(*segmented, result.segments,
                                         options.min_segment_length);
            expects(result.unique.size() >= 3,
                    "analyze: fewer than 3 unique segments; trace too uniform to cluster");
            sp.count("segments", total_segments);
            sp.count("unique_segments", result.unique.size());
            sp.count("pairs", result.unique.size() * (result.unique.size() - 1) / 2);
            sp.count("occurrences_elided", elide ? 1 : 0);
            obs::gauge_set("pipeline.unique_segments",
                           static_cast<double>(result.unique.size()));

            // Neighborhood mode: the sparse engine when forced, when auto
            // crosses the scale threshold, or — degradation rung 2, in every
            // mode — when the dense n*n matrix would not fit the governor;
            // the matrix otherwise. Both produce byte-identical cluster
            // reports (DESIGN.md §13), so this choice moves cost, never
            // results. If even the sparse engine cannot fit, its tracked
            // charges raise memory_budget_exceeded_error — rung 3, the typed
            // exit.
            const std::size_t n = result.unique.size();
            const bool mode_wants_sparse =
                options.neighborhood == dissim::neighborhood_mode::sparse ||
                (options.neighborhood == dissim::neighborhood_mode::auto_ &&
                 n >= dissim::kSparseAutoUniques);
            const bool dense_fits =
                !mem::would_exceed(static_cast<std::uint64_t>(n) * n * sizeof(float));
            if (elide) {
                obs::counter_add("mem.degrade.dedup_total", 1.0);
            }
            if (mode_wants_sparse || !dense_fits) {
                if (!mode_wants_sparse) {
                    obs::counter_add("mem.degrade.sparse_total", 1.0);
                }
                dissim::sparse_build_options sopts;
                sopts.knn_cap = cluster::knn_k_max(n);
                sopts.threads = threads;
                sparse_storage.emplace(result.unique.values, sopts, dl);
                if (hook != nullptr) {
                    knn_curves = sparse_storage->kth_nn_many(cluster::knn_k_max(n), threads);
                    hook->on_neighbors(result.unique, sparse_storage->capped(), knn_curves);
                }
            } else {
                matrix_storage.emplace(result.unique.values, dl, threads);
                if (hook != nullptr) {
                    knn_curves = matrix_storage->kth_nn_many(cluster::knn_k_max(n), threads);
                    hook->on_matrix(result.unique, *matrix_storage, knn_curves);
                }
            }
            mem::publish_gauges();
        }
        // Every consumer below this point sees only the source interface;
        // which construction backs it is invisible to the results.
        std::optional<dissim::matrix_neighborhood> matrix_view;
        if (!sparse_storage.has_value()) {
            matrix_view.emplace(*matrix_storage);
        }
        const dissim::neighborhood_source& source =
            sparse_storage.has_value()
                ? static_cast<const dissim::neighborhood_source&>(*sparse_storage)
                : static_cast<const dissim::neighborhood_source&>(*matrix_view);

        // Auto-configuration + DBSCAN with the oversized-cluster guard.
        // pipeline_options::threads governs the whole run, including the
        // epsilon sweep inside auto-configuration.
        stage = "clustering";
        budget.check("pipeline clustering");
        if (seed.clustering.has_value()) {
            expects(seed.clustering->labels.labels.size() == result.unique.size(),
                    "analyze_seeded: seeded clustering does not label the unique segments");
            result.clustering = std::move(*seed.clustering);
        } else {
            obs::span sp("clustering");
            cluster::autoconf_options autoconf = options.autoconf;
            autoconf.threads = threads;
            autoconf.precomputed_knn = knn_curves.empty() ? nullptr : &knn_curves;
            result.clustering =
                cluster::auto_cluster(source, autoconf, options.oversize_fraction);
            if (sp.enabled()) {
                sp.count("clusters", result.clustering.labels.cluster_count);
                sp.count("noise", result.clustering.labels.noise_count());
                sp.count("reconfigurations", result.clustering.reconfigurations);
            }
            if (hook != nullptr) {
                hook->on_clustering(result.clustering);
            }
        }

        // Refinement. After the oversized-cluster guard walked the epsilon
        // down, merging must not re-create an oversized cluster.
        stage = "refinement";
        budget.check("pipeline refinement");
        {
            obs::span sp("refinement");
            if (options.apply_refinement) {
                std::vector<std::size_t> occurrence_counts;
                occurrence_counts.reserve(result.unique.size());
                for (std::size_t i = 0; i < result.unique.size(); ++i) {
                    occurrence_counts.push_back(result.unique.occurrence_count(i));
                }
                cluster::refine_options refine_opts = options.refine;
                if (result.clustering.reclustered && refine_opts.max_merged_fraction <= 0.0) {
                    refine_opts.max_merged_fraction = options.oversize_fraction;
                }
                result.refinement = cluster::refine(source, result.clustering.labels,
                                                    occurrence_counts, refine_opts, dl);
                result.final_labels = result.refinement.labels;
            } else {
                result.final_labels = result.clustering.labels;
            }
            sp.count("clusters", result.final_labels.cluster_count);
            sp.count("merges", result.refinement.merges.size());
            sp.count("splits", result.refinement.splits.size());
        }
    } catch (const budget_exceeded_error& e) {
        // Completed stages were announced (and checkpointed) as they
        // finished; tell the observer which stage the trip lost so it can
        // mark its manifest interrupted before the run unwinds.
        if (hook != nullptr) {
            hook->on_interrupted(stage);
        }
        mem::publish_gauges();
        rethrow_with_progress(e, stage, budget, result.unique.size());
    }

    mem::publish_gauges();
    result.elapsed_seconds = watch.elapsed_seconds();
    return result;
}

pipeline_result analyze_segments(const std::vector<byte_vector>& messages,
                                 segmentation::message_segments segments,
                                 const pipeline_options& options) {
    pipeline_seed seed;
    seed.segments = std::move(segments);
    return analyze_seeded(messages, nullptr, std::move(seed), options);
}

pipeline_result analyze(const std::vector<byte_vector>& messages,
                        const segmentation::segmenter& segmenter,
                        const pipeline_options& options) {
    return analyze_seeded(messages, &segmenter, {}, options);
}

pipeline_result analyze_seeded(const std::vector<byte_vector>& messages,
                               const segmentation::segmenter* segmenter, pipeline_seed seed,
                               const pipeline_options& options) {
    diag::error_sink strict(diag::policy::strict);
    return analyze_seeded(messages, segmenter, std::move(seed), options, strict);
}

}  // namespace ftc::core
