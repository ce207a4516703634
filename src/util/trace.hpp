// Structured pipeline event tracer.
//
// The pipeline (and any other component) records compact events — stage
// occupancy per cycle, branch resolutions, folds, mispredicts — into an
// in-memory buffer; the buffer serializes either as JSONL (one event object
// per line, easy to grep/jq) or as the Chrome trace_event format that
// Perfetto / chrome://tracing open directly (each pipeline stage renders as
// a track, each occupied stage-cycle as a 1-cycle slice, resolutions as
// instant events).  One simulated cycle maps to one microsecond of trace
// time.
//
// Cost model: a null tracer pointer costs one branch per cycle, and a
// non-null tracer records POD events until `maxEvents` is reached (the run
// continues untraced past the cap).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace asbr {

/// What an event describes.
enum class TraceKind : std::uint8_t {
    kStage,      ///< an instruction occupies pipeline lane `lane` this cycle
    kBranch,     ///< conditional branch resolved in EX (flag = taken)
    kFold,       ///< folded branch reached EX (flag = resolved-taken)
    kMispredict, ///< control flush (branch or indirect-jump redirect)
};

/// One compact trace record.  `name` must point at storage that outlives the
/// tracer (opcode mnemonics / static strings).
struct TraceEvent {
    std::uint64_t cycle = 0;
    TraceKind kind = TraceKind::kStage;
    std::uint8_t lane = 0;
    bool flag = false;
    std::uint32_t pc = 0;
    std::uint32_t arg = 0;  ///< kind-specific (e.g. redirect target)
    const char* name = "";
};

struct TracerConfig {
    /// Hard cap on buffered events; recording silently stops at the cap and
    /// `truncated()` reports it.
    std::size_t maxEvents = 1u << 20;
    /// Ignore events before this cycle (window start).
    std::uint64_t startCycle = 0;
    /// Ignore events at/after this cycle (window end; default: no end).
    std::uint64_t endCycle = UINT64_MAX;
};

class Tracer {
public:
    explicit Tracer(const TracerConfig& config = {});

    void record(const TraceEvent& event) {
        if (event.cycle < config_.startCycle || event.cycle >= config_.endCycle)
            return;
        if (events_.size() >= config_.maxEvents) {
            truncated_ = true;
            return;
        }
        events_.push_back(event);
    }

    /// Fast pre-check so callers can skip building events entirely.
    [[nodiscard]] bool wants(std::uint64_t cycle) const {
        return cycle >= config_.startCycle && cycle < config_.endCycle &&
               events_.size() < config_.maxEvents;
    }

    [[nodiscard]] const std::vector<TraceEvent>& events() const {
        return events_;
    }
    [[nodiscard]] bool truncated() const { return truncated_; }

    /// One JSON object per line:
    ///   {"cycle":12,"kind":"stage","lane":"EX","pc":"0x00400010","op":"addu"}
    void writeJsonl(std::ostream& out) const;

    /// Chrome trace_event JSON document ({"traceEvents":[...]}).
    void writeChrome(std::ostream& out) const;

    [[nodiscard]] const char* laneName(std::uint8_t lane) const;

private:
    TracerConfig config_;
    std::vector<TraceEvent> events_;
    std::vector<std::string> laneNames_;
    bool truncated_ = false;
};

/// Stable string for a TraceKind ("stage", "branch", "fold", "mispredict").
[[nodiscard]] const char* traceKindName(TraceKind kind);

}  // namespace asbr
