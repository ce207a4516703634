// SimJob — the declarative description of one cycle-accurate simulation run.
//
// A job names a workload (+ input seed and sample count), a predictor token,
// and an optional ASBR customization (BIT size, BDT update stage, parity
// protection, static folds).  It carries no live objects: everything a run
// needs is constructed by the SimEngine from the job's fields, with the
// expensive load -> profile -> select artifacts resolved through a shared
// immutable cache and the mutable hardware state (predictor, AsbrUnit,
// memory image, MetricRegistry, Tracer) built fresh per run so two engine
// workers can never share hot-path state.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "asbr/asbr_unit.hpp"
#include "profile/selection.hpp"
#include "report/report.hpp"
#include "sim/pipeline.hpp"
#include "sim/sampling.hpp"
#include "util/trace.hpp"
#include "workloads/workloads.hpp"

namespace asbr::driver {

/// One simulation run, declaratively.  Value type: copy freely, hash/compare
/// fields, build grids of them.
struct SimJob {
    BenchId workload = BenchId::kAdpcmEncode;
    bool scheduled = true;        ///< condition-scheduling compiler pass
    std::uint64_t seed = 2001;    ///< input-generator seed
    std::size_t samples = 0;      ///< input samples (0 = buffer capacity)
    std::string predictor = "bimodal";  ///< driver::makePredictorByToken token
    std::string figure;           ///< report meta tag ("fig6", "sweep", ...)

    // ASBR customization (ignored unless asbr is set).
    bool asbr = false;
    std::size_t bitEntries = 0;   ///< 0 = the paper's count for the workload
    ValueStage updateStage = ValueStage::kMemEnd;
    bool parityProtected = false;
    bool staticFolds = false;     ///< two-class selection + static fold table
    /// Selection uses the bimodal-2048 reference predictor's per-site
    /// accuracy, replayed over the functional branch stream, as its
    /// reference (every figure regenerator does; the external-predictor
    /// ablation deliberately selects without one).
    bool accuracyRef = true;
    /// Predictor-aware selection (docs/predictors.md): profile the job's own
    /// fallback predictor over the workload and fold only the branches it
    /// demonstrably loses, handing the rest back to the predictor.
    /// Mutually exclusive with staticFolds.
    bool predictorAware = false;

    // Sampled simulation (docs/simulation.md).  When `sampled` is set the
    // run alternates cycle-accurate windows with functional fast-forward
    // under `sampling`; `sampleReference` additionally executes the full
    // cycle-accurate run so the report can state the achieved CPI error.
    bool sampled = false;
    SamplingConfig sampling{};
    bool sampleReference = false;

    // Observability.  The tracer gate is job-scoped: each traced job gets its
    // own Tracer instance, returned in JobResult::tracer — never a
    // process-global pointer two workers could interleave events into.
    bool trace = false;
    TracerConfig traceConfig{};
};

/// Everything a finished job reports.  The SimReport owns a per-job
/// MetricRegistry that every component published into after the run.
struct JobResult {
    PipelineStats stats;
    SimReport report;

    // ASBR summary (asbr jobs only).
    bool asbr = false;
    std::vector<Candidate> candidates;        ///< BIT-resident selection
    std::size_t staticFoldCount = 0;          ///< static-table branches
    std::uint64_t bitSlotsReclaimed = 0;
    AsbrStats unitStats;                      ///< post-run unit counters
    std::uint64_t unitStorageBits = 0;

    std::uint64_t predictorStorageBits = 0;

    /// Sampled-run outcome (only when SimJob::sampled was set).  `stats`
    /// then holds the detailed-window statistics; when sampleReference was
    /// also set, `reference` carries the full run's cycle/commit counts.
    /// Read-only: the cells of a batch that simulate one machine share it.
    std::shared_ptr<const SampledResult> sampled;
    bool hasReference = false;
    std::uint64_t referenceCycles = 0;
    std::uint64_t referenceCommitted = 0;

    /// Host wall-clock seconds spent in the simulation phase alone — the
    /// pipeline / sampled run plus any sampleReference run, excluding the
    /// compile/profile/select artifact work (which is cached across jobs and
    /// would otherwise dominate short runs).  A sampled job that records its
    /// workload's shared fast-forward log (the first job of each workload
    /// and window geometry) includes that walk.  A batch cell whose machine
    /// another cell of the batch simulates (a twin, SimEngine::run) counts
    /// only its wait for that run: about 0 when the run had finished.
    /// Host-dependent by nature: feeds the human-facing `sim speed` line and
    /// the sim.mips counter, never a JSON artifact.
    double simSeconds = 0.0;

    /// Per-job tracer (only when SimJob::trace was set).
    std::shared_ptr<Tracer> tracer;
};

}  // namespace asbr::driver
