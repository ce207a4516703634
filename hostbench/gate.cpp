// Correctness gate: pinned report digests and the fold-accounting identity.
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "driver/journal.hpp"
#include "util/json.hpp"

namespace hostbench {

namespace {

std::string reportBytes(const asbr::JsonValue& doc) {
    return doc.dump(2) + "\n";
}

/// Per job of a round: does committed(base) == committed(asbr) + folded
/// hold?  Each ASBR job is paired with the round's baseline job of the same
/// workload and predictor.  A round without baselines (cold-asbr) uses the
/// ISS instruction count of the job's own profile instead: the pipeline
/// commits exactly what the ISS executes.  A sampled run counts every
/// executed instruction and its folds happen inside the windows, so the
/// identity holds there too.
std::vector<bool> pairChecks(SimEngine& engine, std::span<const SimJob> jobs,
                             std::span<const JobResult> results) {
    std::map<std::pair<asbr::BenchId, std::string>, std::uint64_t> base;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        if (!jobs[i].asbr)
            base[{jobs[i].workload, jobs[i].predictor}] =
                simulatedInstructions(results[i]);

    std::vector<bool> ok(jobs.size(), true);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const SimJob& job = jobs[i];
        if (!job.asbr) continue;
        const auto cell = base.find({job.workload, job.predictor});
        const std::uint64_t reference =
            cell != base.end()
                ? cell->second
                : engine.workloadFor(job)->profile().instructions;
        const std::uint64_t committed = simulatedInstructions(results[i]);
        const std::uint64_t folded = results[i].stats.foldedBranches;
        if (reference == committed + folded) continue;
        ok[i] = false;
        std::fprintf(stderr,
                     "gate: %s: committed %llu + folded %llu != baseline "
                     "%llu\n",
                     engine.jobKey(job).c_str(),
                     static_cast<unsigned long long>(committed),
                     static_cast<unsigned long long>(folded),
                     static_cast<unsigned long long>(reference));
    }
    return ok;
}

}  // namespace

Gate::Gate(const std::string& pinsPath) {
    std::ifstream in(pinsPath);
    if (!in) throw std::runtime_error("cannot read pins file " + pinsPath);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        std::istringstream fields(line);
        std::string digest;
        std::string key;
        if (!(fields >> digest >> key))
            throw std::runtime_error("malformed pin line: " + line);
        pins_.emplace(std::move(key), std::move(digest));
    }
}

bool Gate::check(const std::string& key, const asbr::SimReport& report,
                 Spans* spans) const {
    std::string bytes;
    const asbr::JsonValue doc = timed(spans, "report.serialize", [&] {
        asbr::JsonValue json = asbr::simReportJson(report);
        bytes = reportBytes(json);
        return json;
    });
    if (spans != nullptr) spans->list.back().work = bytes.size();
    const asbr::ReportValidation validation = timed(
        spans, "report.validate", [&] { return validateSimReportJson(doc); });
    if (!validation.ok()) {
        std::fprintf(stderr, "gate: %s: invalid report: %s\n", key.c_str(),
                     validation.errors.front().c_str());
        return false;
    }
    const auto pin = pins_.find(key);
    if (pin == pins_.end()) {
        std::fprintf(stderr, "gate: %s: no pinned digest\n", key.c_str());
        return false;
    }
    const std::string digest = asbr::driver::fnv1a64Hex(bytes);
    if (digest == pin->second) return true;
    std::fprintf(stderr, "gate: %s: report digest %s, pinned %s\n",
                 key.c_str(), digest.c_str(), pin->second.c_str());
    return false;
}

std::uint64_t roundFailures(SimEngine& engine, std::span<const SimJob> jobs,
                            std::span<const JobResult> results,
                            const Gate& gate, std::span<Spans> spans) {
    const std::vector<bool> pairs = pairChecks(engine, jobs, results);
    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const bool ok = gate.check(engine.jobKey(jobs[i]), results[i].report,
                                   spans.empty() ? nullptr : &spans[i]);
        if (!ok || !pairs[i]) ++failed;
    }
    return failed;
}

void writePins(const std::string& path) {
    std::ostringstream out;
    out << "# fnv1a64 of every benchmark job's asbr.sim_report bytes "
           "(dump(2) plus a newline).\n"
        << "# Regenerate with `hostbench --write-pins FILE` only when a "
           "change alters report bytes on purpose.\n";
    bool broken = false;
    for (const Workload workload : {Workload::kColdAsbr, Workload::kWarmSweep,
                                    Workload::kSampledSweep}) {
        for (std::uint64_t k = 0; k < kInputSeedPool; ++k) {
            const std::vector<SimJob> jobs =
                roundJobs(workload, kInputSeedBase + k);
            asbr::driver::EngineConfig config;
            config.threads = sweepThreads();
            SimEngine engine(config);
            const std::vector<JobResult> results = engine.run(jobs);
            const std::vector<bool> pairs = pairChecks(engine, jobs, results);
            for (std::size_t i = 0; i < jobs.size(); ++i) {
                const asbr::JsonValue doc = simReportJson(results[i].report);
                if (!pairs[i] || !validateSimReportJson(doc).ok()) {
                    std::fprintf(stderr, "pins: %s fails the gate\n",
                                 engine.jobKey(jobs[i]).c_str());
                    broken = true;
                }
                out << asbr::driver::fnv1a64Hex(reportBytes(doc)) << ' '
                    << engine.jobKey(jobs[i]) << '\n';
            }
        }
    }
    if (broken) throw std::runtime_error("pins: refusing to pin failing jobs");
    std::ofstream file(path);
    file << out.str();
    if (!file) throw std::runtime_error("cannot write pins file " + path);
}

}  // namespace hostbench
