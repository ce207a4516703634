// Shared, immutable simulation artifacts with once-per-key resolution.
//
// Loading a workload (assemble + schedule + generate input), profiling it
// and selecting its ASBR branches are pure functions of a small key — yet
// the pre-driver binaries recomputed them for every run, and a parallel
// engine would recompute them on every worker.  This layer computes each
// artifact exactly once per key and shares the result read-only:
//
//   WorkloadKey  -> WorkloadArtifacts   program + input (+ lazy profile
//                                       walk, which also fills the
//                                       registered tokens' prediction
//                                       profiles; other tokens' profiles and
//                                       per-geometry fast-forward logs)
//   SelectionKey -> SelectionArtifacts  selected candidates + extracted
//                                       BIT/static-fold entries
//
// Artifacts are immutable after construction; anything mutable a run needs
// (Memory image, predictor, AsbrUnit) is built *fresh* from them per run, so
// concurrent engine workers never share hot-path state.  Every keyed store
// is a OncePerKey, so all of them are thread-safe the same way.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "asbr/asbr_unit.hpp"
#include "asbr/bit.hpp"
#include "asbr/static_fold.hpp"
#include "bp/predictor.hpp"
#include "mem/memory.hpp"
#include "profile/profiler.hpp"
#include "profile/selection.hpp"
#include "sim/fast_forward_log.hpp"
#include "sim/pipeline.hpp"
#include "sim/sampling.hpp"
#include "workloads/workloads.hpp"

namespace asbr::driver {

/// A compiled benchmark plus its input data (decoders get codes produced by
/// the native encoder, mirroring how MediaBench chains encode -> decode).
struct Prepared {
    BenchId id;
    bool scheduled = true;  ///< condition-scheduling pass was enabled
    Program program;
    std::vector<std::int16_t> pcm;    ///< encoder input (empty for decoders)
    std::vector<std::uint8_t> codes;  ///< decoder input (empty for encoders)
};

[[nodiscard]] Prepared prepare(BenchId id, bool scheduled, std::uint64_t seed,
                               std::size_t samples);

/// Fresh memory image holding program + input.
[[nodiscard]] Memory makeMemory(const Prepared& prepared);

/// One cycle-accurate run against a fresh memory image.  Resets the
/// predictor first and asserts a clean exit.
[[nodiscard]] PipelineResult runPipeline(const Prepared& prepared,
                                         BranchPredictor& predictor,
                                         AsbrUnit* unit = nullptr,
                                         const PipelineConfig& config = {});

/// One sampled run (docs/simulation.md) against a fresh memory image, on
/// the workload's fast-forward log `log`.  Resets the predictor first and
/// asserts a clean exit — a sampled run still reaches the program's exit
/// architecturally, so the exit contract holds.
[[nodiscard]] SampledResult runSampledPipeline(
    const Prepared& prepared, BranchPredictor& predictor, AsbrUnit* unit,
    const FastForwardLog& log, const PipelineConfig& config = {});

/// One-shot form: records its own fast-forward log for `sampling` first.
[[nodiscard]] SampledResult runSampledPipeline(
    const Prepared& prepared, BranchPredictor& predictor, AsbrUnit* unit,
    const SamplingConfig& sampling, const PipelineConfig& config = {});

/// Thread-safe once-per-key store of immutable values: a key's first
/// requester computes, concurrent requesters for the same key block on a
/// shared_future, and requesters of *different* keys never serialize against
/// the computation.  A computation that throws is not kept: its requester
/// rethrows the error, and every other requester, waiting or later, computes
/// again with its own `make` (a walk abandoned at one job's deadline must not
/// fail another job, whose deadline may be far off).
template <typename Key, typename Value>
class OncePerKey {
public:
    /// The value for `key`, computing it with `make()` on first request.
    template <typename Make>
    [[nodiscard]] std::shared_ptr<const Value> get(const Key& key, Make make) {
        for (;;) {
            std::promise<std::shared_ptr<const Value>> promise;
            Slot slot;
            bool owner = false;
            {
                std::lock_guard<std::mutex> lock(mutex_);
                const auto [it, inserted] = slots_.try_emplace(key);
                if (inserted) {
                    it->second = promise.get_future().share();
                    owner = true;
                } else {
                    hits_.fetch_add(1, std::memory_order_relaxed);
                }
                slot = it->second;
            }
            if (!owner) {
                try {
                    return slot.get();
                } catch (...) {
                    // Another requester's computation failed and its slot is
                    // gone: request again.
                    continue;
                }
            }
            // Compute outside the lock: concurrent requests for *other* keys
            // proceed; concurrent requests for *this* key block on the future.
            try {
                promise.set_value(make());
                computes_.fetch_add(1, std::memory_order_relaxed);
            } catch (...) {
                {
                    std::lock_guard<std::mutex> lock(mutex_);
                    slots_.erase(key);
                }
                promise.set_exception(std::current_exception());
            }
            return slot.get();
        }
    }

    /// Requests served from an already-inserted entry.
    [[nodiscard]] std::uint64_t hits() const {
        return hits_.load(std::memory_order_relaxed);
    }
    /// Values computed without throwing.
    [[nodiscard]] std::uint64_t computes() const {
        return computes_.load(std::memory_order_relaxed);
    }

private:
    using Slot = std::shared_future<std::shared_ptr<const Value>>;
    std::mutex mutex_;
    std::map<Key, Slot> slots_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> computes_{0};
};

/// Everything that determines a workload's program + input, byte for byte.
struct WorkloadKey {
    BenchId workload = BenchId::kAdpcmEncode;
    bool scheduled = true;
    std::uint64_t seed = 2001;
    std::size_t samples = 0;  ///< actual (capacity-capped) sample count

    auto operator<=>(const WorkloadKey&) const = default;
};

/// Everything that determines an ASBR branch selection on a workload.
struct SelectionKey {
    WorkloadKey workload;
    std::size_t bitEntries = 16;  ///< resolved BIT capacity (never 0)
    ValueStage updateStage = ValueStage::kMemEnd;
    /// Use the bimodal-2048 reference predictor's per-site accuracy
    /// (WorkloadArtifacts::baselineAccuracy) to rank candidates (every
    /// figure regenerator does; ext_predictors deliberately does not).
    bool useAccuracy = true;
    bool staticFolds = false;  ///< two-class selection + static fold table
    /// Predictor-aware selection: fold only what `predictorToken` loses
    /// (mutually exclusive with staticFolds).
    bool predictorAware = false;
    /// The strong fallback predictor's registry token (predictorAware only;
    /// empty otherwise so keys that ignore the predictor keep aliasing).
    std::string predictorToken;

    auto operator<=>(const SelectionKey&) const = default;
};

/// Immutable loaded workload.  The branch profile, the prediction profiles
/// and the fast-forward logs are computed lazily (jobs that do not need one
/// never pay for it) but still exactly once, so concurrent callers are
/// safe.  All are functional (ISS) passes bounded at PipelineConfig::maxCycles
/// instructions: the pipeline commits at most one instruction per cycle, so
/// every program a job's own run accepts completes within the bound.
///
/// The profile walk also replays every predictor registered before it
/// begins (registerPrediction), so the branch profile and those prediction
/// profiles cost one pass over the committed stream.  A token registered
/// later, or never, walks alone when first requested.
class WorkloadArtifacts {
public:
    explicit WorkloadArtifacts(const WorkloadKey& key);

    [[nodiscard]] const WorkloadKey& key() const { return key_; }
    [[nodiscard]] const Prepared& prepared() const { return prepared_; }

    /// Have the profile walk also fill predictionProfile(token).  A token
    /// registered after the walk began gets a walk of its own.
    void registerPrediction(const std::string& token) const;

    /// Functional branch profile (lazy, computed once).
    [[nodiscard]] const ProgramProfile& profile() const;

    /// profile() under a deadline: when this call runs the walk, `poll` runs
    /// at least every kWalkPollInterval instructions and may throw to abandon
    /// it.  An abandoned walk is not kept: a request that was waiting on it,
    /// like any later one, walks again under its own poll.
    [[nodiscard]] const ProgramProfile& profile(
        const std::function<void()>& poll) const;

    /// The registry tokens whose prediction profiles the profile walk
    /// filled, sorted (runs the walk if it has not run).
    [[nodiscard]] std::vector<std::string> profileWalkTokens() const;

    /// The bimodal-2048 reference predictor's per-site record — the
    /// hardness reference every selection uses (paper §6).  It is the
    /// "bimodal" entry of predictionProfile(), so it lives as long as this
    /// object.
    [[nodiscard]] const PredictionProfile& baselineAccuracy() const;

    /// Per-site prediction record of playing the predictor named by a
    /// registry token over this workload's committed branch stream
    /// (profilePredictions).  Lazy, once per token.
    [[nodiscard]] std::shared_ptr<const PredictionProfile> predictionProfile(
        const std::string& token) const;

    /// Architectural checkpoints of this workload's stream on the grid of
    /// one window geometry, shared by every sampled job that uses it (lazy,
    /// once per geometry).  Sampled jobs request it inside their timed
    /// simulation phase, never during artifact set-up.  When this request
    /// records the log, `poll` runs periodically during the walk and may
    /// throw to abandon it (FastForwardLog::record).
    [[nodiscard]] std::shared_ptr<const FastForwardLog> fastForwardLog(
        const SamplingConfig& sampling,
        const std::function<void()>& poll = {}) const;

private:
    /// What the profile walk fills.
    struct ProfileWalk {
        ProgramProfile program;
        std::map<std::string, std::shared_ptr<const PredictionProfile>>
            predictions;
    };
    [[nodiscard]] std::shared_ptr<const ProfileWalk> sharedWalk(
        const std::function<void()>& poll) const;

    WorkloadKey key_;
    Prepared prepared_;
    mutable std::mutex registryMutex_;
    /// Every registered token; guarded by registryMutex_.
    mutable std::set<std::string> registered_;
    mutable OncePerKey<bool, ProfileWalk> walk_;  ///< one key: the walk
    mutable OncePerKey<std::string, PredictionProfile> predictions_;
    mutable OncePerKey<SamplingConfig, FastForwardLog> logs_;
};

/// Immutable branch selection: candidates plus the extracted table contents,
/// ready to stamp out fresh AsbrUnits.  The stored BranchInfos are exactly
/// what AsbrUnit::loadBank stores (the BIT keeps them unchanged), so units
/// built here are bit-identical to the pre-driver profile->select->extract
/// path.
class SelectionArtifacts {
public:
    SelectionArtifacts(std::shared_ptr<const WorkloadArtifacts> workload,
                       const SelectionKey& key);

    [[nodiscard]] const SelectionKey& key() const { return key_; }
    [[nodiscard]] const WorkloadArtifacts& workload() const {
        return *workload_;
    }
    [[nodiscard]] const std::vector<Candidate>& candidates() const {
        return candidates_;
    }
    [[nodiscard]] const std::vector<StaticFoldCandidate>& staticCandidates()
        const {
        return staticCandidates_;
    }
    [[nodiscard]] std::uint64_t bitSlotsReclaimed() const {
        return bitSlotsReclaimed_;
    }
    /// Predictor-aware selection summary (zeros unless key().predictorAware).
    [[nodiscard]] const PredictorAwareSelectionMetrics& awareMetrics() const {
        return awareMetrics_;
    }
    /// Hardness taxonomy per foldable site (empty unless predictorAware).
    [[nodiscard]] const std::map<std::uint32_t, BranchHardness>& hardness()
        const {
        return hardness_;
    }
    [[nodiscard]] const std::vector<BranchInfo>& branchInfos() const {
        return infos_;
    }

    /// Fresh ASBR unit with bank 0 (and the static fold table, when the
    /// selection has one) loaded.  Safe to call concurrently.
    [[nodiscard]] std::unique_ptr<AsbrUnit> makeUnit(
        bool parityProtected) const;

private:
    std::shared_ptr<const WorkloadArtifacts> workload_;
    SelectionKey key_;
    std::vector<Candidate> candidates_;
    std::vector<StaticFoldCandidate> staticCandidates_;
    std::uint64_t bitSlotsReclaimed_ = 0;
    PredictorAwareSelectionMetrics awareMetrics_{};
    std::map<std::uint32_t, BranchHardness> hardness_;
    std::vector<BranchInfo> infos_;
    std::vector<StaticFoldEntry> staticEntries_;
};

/// Thread-safe once-per-key artifact store.
class ArtifactCache {
public:
    [[nodiscard]] std::shared_ptr<const WorkloadArtifacts> workload(
        const WorkloadKey& key);
    [[nodiscard]] std::shared_ptr<const SelectionArtifacts> selection(
        const SelectionKey& key);

    struct Stats {
        std::uint64_t workloadComputes = 0;
        std::uint64_t selectionComputes = 0;
        /// Workload and selection requests served from an already-inserted
        /// entry (prediction-profile tokens are not counted).
        /// Deterministic: always requests - unique keys, however the races
        /// fall.
        std::uint64_t hits = 0;
    };
    [[nodiscard]] Stats stats() const;

private:
    OncePerKey<WorkloadKey, WorkloadArtifacts> workloads_;
    OncePerKey<SelectionKey, SelectionArtifacts> selections_;
};

}  // namespace asbr::driver
