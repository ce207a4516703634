#include "util/trace.hpp"

#include <cstdio>
#include <ostream>

#include "util/json.hpp"

namespace asbr {

const char* traceKindName(TraceKind kind) {
    switch (kind) {
        case TraceKind::kStage: return "stage";
        case TraceKind::kBranch: return "branch";
        case TraceKind::kFold: return "fold";
        case TraceKind::kMispredict: return "mispredict";
    }
    return "?";
}

Tracer::Tracer(const TracerConfig& config)
    : config_(config),
      laneNames_{"IF/ID", "ID/EX", "EX/MEM", "MEM/WB", "resolve"} {}

const char* Tracer::laneName(std::uint8_t lane) const {
    return lane < laneNames_.size() ? laneNames_[lane].c_str() : "?";
}

namespace {

void appendHexPc(std::string& out, std::uint32_t pc) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "0x%08x", pc);
    out += buf;
}

}  // namespace

void Tracer::writeJsonl(std::ostream& out) const {
    std::string line;
    for (const TraceEvent& e : events_) {
        line.clear();
        line += "{\"cycle\":";
        line += std::to_string(e.cycle);
        line += ",\"kind\":\"";
        line += traceKindName(e.kind);
        line += "\",\"lane\":\"";
        jsonEscape(line, laneName(e.lane));
        line += "\",\"pc\":\"";
        appendHexPc(line, e.pc);
        line += "\",\"op\":\"";
        jsonEscape(line, e.name);
        line += '"';
        if (e.kind != TraceKind::kStage) {
            line += ",\"taken\":";
            line += e.flag ? "true" : "false";
            if (e.arg != 0) {
                line += ",\"target\":\"";
                appendHexPc(line, e.arg);
                line += '"';
            }
        }
        line += "}\n";
        out << line;
    }
}

void Tracer::writeChrome(std::ostream& out) const {
    out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;
    std::string line;
    auto emit = [&](const std::string& event) {
        if (!first) out << ",";
        first = false;
        out << "\n" << event;
    };
    // Thread-name metadata so Perfetto labels each pipeline lane.
    for (std::size_t lane = 0; lane < laneNames_.size(); ++lane) {
        line = "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":";
        line += std::to_string(lane);
        line += ",\"args\":{\"name\":\"";
        jsonEscape(line, laneNames_[lane]);
        line += "\"}}";
        emit(line);
    }
    for (const TraceEvent& e : events_) {
        line = "{\"name\":\"";
        jsonEscape(line, e.name);
        line += ' ';
        appendHexPc(line, e.pc);
        line += "\",\"cat\":\"";
        line += traceKindName(e.kind);
        if (e.kind == TraceKind::kStage) {
            // One occupied stage-cycle = a 1us complete slice on the lane.
            line += "\",\"ph\":\"X\",\"ts\":";
            line += std::to_string(e.cycle);
            line += ",\"dur\":1,\"pid\":0,\"tid\":";
            line += std::to_string(e.lane);
            line += '}';
        } else {
            line += "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":";
            line += std::to_string(e.cycle);
            line += ",\"pid\":0,\"tid\":";
            line += std::to_string(e.lane);
            line += ",\"args\":{\"taken\":";
            line += e.flag ? "true" : "false";
            if (e.arg != 0) {
                line += ",\"target\":\"";
                appendHexPc(line, e.arg);
                line += '"';
            }
            line += "}}";
        }
        emit(line);
    }
    out << "\n]}\n";
}

}  // namespace asbr
