// CLI robustness (docs/fault-injection.md, "Robustness"): every asbr-* tool
// must turn bad input — unknown flags, missing files, malformed JSON,
// wrong-schema documents — into a one-line structured error and a non-zero
// exit code.  No tool may die from an uncaught exception or a signal.
//
// The tests shell out to the real binaries (ASBR_TOOLS_DIR is injected by
// CMake as the tool build directory) and inspect exit status + combined
// stdout/stderr.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

namespace {

struct RunResult {
    int exitCode = -1;
    bool exitedNormally = false;  ///< false = killed by a signal (crash)
    std::string output;           ///< combined stdout + stderr
};

RunResult runTool(const std::string& tool, const std::string& args) {
    const std::string cmd =
        std::string(ASBR_TOOLS_DIR) + "/" + tool + " " + args + " 2>&1";
    std::FILE* pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr) << cmd;
    RunResult result;
    if (pipe == nullptr) return result;
    char buffer[4096];
    while (std::fgets(buffer, sizeof buffer, pipe) != nullptr)
        result.output += buffer;
    const int status = pclose(pipe);
    result.exitedNormally = WIFEXITED(status);
    result.exitCode = result.exitedNormally ? WEXITSTATUS(status) : -1;
    return result;
}

/// The shared contract for every rejection: normal exit, non-zero code,
/// a diagnostic on exactly one line, and no uncaught-exception traces.
void expectCleanRejection(const RunResult& r, const std::string& what) {
    EXPECT_TRUE(r.exitedNormally) << what << " died from a signal:\n"
                                  << r.output;
    EXPECT_NE(r.exitCode, 0) << what << " accepted bad input:\n" << r.output;
    EXPECT_FALSE(r.output.empty()) << what << " rejected silently";
    EXPECT_EQ(r.output.npos, r.output.find("terminate called")) << r.output;
    EXPECT_EQ(r.output.npos, r.output.find("Segmentation")) << r.output;
}

std::string writeTemp(const std::string& name, const std::string& content) {
    const std::string path =
        testing::TempDir() + "asbr_cli_robustness_" + name;
    std::ofstream out(path);
    out << content;
    return path;
}

class CliRobustnessTest : public testing::TestWithParam<const char*> {};

TEST_P(CliRobustnessTest, UnknownFlagIsRejected) {
    const RunResult r = runTool(GetParam(), "--definitely-not-a-flag");
    expectCleanRejection(r, GetParam());
}

TEST_P(CliRobustnessTest, HelpSucceeds) {
    const RunResult r = runTool(GetParam(), "--help");
    EXPECT_TRUE(r.exitedNormally);
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("usage"), r.output.npos) << r.output;
}

INSTANTIATE_TEST_SUITE_P(Tools, CliRobustnessTest,
                         testing::Values("asbr-stats", "asbr-verify",
                                         "asbr-faults", "asbr-sweep"));

TEST(CliRobustness, StatsUnknownCommand) {
    expectCleanRejection(runTool("asbr-stats", "frobnicate"), "asbr-stats");
}

TEST(CliRobustness, StatsValidateMissingFile) {
    expectCleanRejection(
        runTool("asbr-stats", "validate /nonexistent/report.json"),
        "asbr-stats validate");
}

TEST(CliRobustness, StatsValidateMalformedJson) {
    const std::string path = writeTemp("bad.json", "{ this is : not json");
    expectCleanRejection(runTool("asbr-stats", "validate " + path),
                         "asbr-stats validate");
}

TEST(CliRobustness, StatsValidateWrongSchema) {
    const std::string path = writeTemp(
        "schema.json", R"({"schema":"asbr.made_up_schema","version":1})");
    expectCleanRejection(runTool("asbr-stats", "validate " + path),
                         "asbr-stats validate");
}

/// A member with an out-of-range value must come back as a schema error
/// naming that member, never as an internal assertion.
void expectSchemaError(const std::string& name, const std::string& doc,
                       const std::string& field) {
    const RunResult r =
        runTool("asbr-stats", "validate " + writeTemp(name, doc));
    expectCleanRejection(r, "asbr-stats validate");
    EXPECT_NE(r.output.find(field), r.output.npos) << r.output;
    EXPECT_EQ(r.output.find("ASBR_ENSURE"), r.output.npos) << r.output;
}

TEST(CliRobustness, StatsValidateNegativeSamplingMeasure) {
    expectSchemaError(
        "neg_measure.json",
        R"({"schema":"asbr.sampling_report","version":1,)"
        R"("sampling":{"warmup":0,"measure":-5,"skip":0}})",
        "sampling/measure");
}

TEST(CliRobustness, StatsValidateFractionalVersion) {
    expectSchemaError("frac_version.json",
                      R"({"schema":"asbr.sim_report","version":1.5})",
                      "version");
}

TEST(CliRobustness, StatsValidateNegativeWcetThreshold) {
    expectSchemaError(
        "neg_threshold.json",
        R"({"schema":"asbr.wcet_report","version":1,"meta":{"benchmark":"x",)"
        R"("threshold":-3,"scheduled":true,"seed":0,"samples":0}})",
        "meta/threshold");
}

TEST(CliRobustness, StatsRunUnknownBench) {
    expectCleanRejection(
        runTool("asbr-stats", "run --bench=quake3 --predictor=bimodal"),
        "asbr-stats run");
}

TEST(CliRobustness, StatsRunUnknownPredictor) {
    expectCleanRejection(
        runTool("asbr-stats", "run --bench=adpcm-enc --predictor=oracle2"),
        "asbr-stats run");
}

TEST(CliRobustness, VerifyMissingFile) {
    expectCleanRejection(runTool("asbr-verify", "/nonexistent/prog.s"),
                         "asbr-verify");
}

TEST(CliRobustness, VerifyNoArguments) {
    expectCleanRejection(runTool("asbr-verify", ""), "asbr-verify");
}

TEST(CliRobustness, VerifyAnalyzeMissingFile) {
    expectCleanRejection(runTool("asbr-verify", "analyze /nonexistent/prog.s"),
                         "asbr-verify analyze");
}

TEST(CliRobustness, VerifyAnalyzeUnknownBench) {
    expectCleanRejection(runTool("asbr-verify", "analyze --bench=mpeg9"),
                         "asbr-verify analyze");
}

TEST(CliRobustness, VerifyAnalyzeFileAndBenchConflict) {
    expectCleanRejection(
        runTool("asbr-verify", "analyze prog.s --bench=adpcm-enc"),
        "asbr-verify analyze");
}

TEST(CliRobustness, VerifyAnalyzeUnwritableOutput) {
    expectCleanRejection(
        runTool("asbr-verify",
                "analyze --bench=adpcm-enc --out=/nonexistent/dir/r.json"),
        "asbr-verify analyze");
}

TEST(CliRobustness, VerifyDumpCfgUnwritablePath) {
    const std::string src = writeTemp("dump_cfg.s",
                                      "main:   li v0, 1\n"
                                      "        li a0, 0\n"
                                      "        sys\n");
    expectCleanRejection(
        runTool("asbr-verify",
                src + " --no-profile --quiet --dump-cfg=/nonexistent/dir/g.dot"),
        "asbr-verify --dump-cfg");
}

TEST(CliRobustness, VerifyDumpCfgWritesAValidDigraph) {
    // The nops keep the branch's producer distance at the fold threshold,
    // so the verify pass itself exits 0 and only the dump is under test.
    const std::string src = writeTemp("dump_cfg_ok.s",
                                      "main:   li s0, 3\n"
                                      "loop:   addiu s0, s0, -1\n"
                                      "        nop\n"
                                      "        nop\n"
                                      "        nop\n"
                                      "        bgtz s0, loop\n"
                                      "        li v0, 1\n"
                                      "        li a0, 0\n"
                                      "        sys\n");
    const std::string dot = testing::TempDir() + "asbr_cli_robustness_cfg.dot";
    const RunResult r = runTool(
        "asbr-verify", src + " --no-profile --quiet --dump-cfg=" + dot);
    EXPECT_TRUE(r.exitedNormally);
    EXPECT_EQ(r.exitCode, 0) << r.output;
    std::ifstream in(dot);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("digraph"), text.npos);
    EXPECT_NE(text.find("->"), text.npos);
}

TEST(CliRobustness, FaultsUnknownCommand) {
    expectCleanRejection(runTool("asbr-faults", "inject-everything"),
                         "asbr-faults");
}

TEST(CliRobustness, FaultsCampaignUnknownBench) {
    expectCleanRejection(
        runTool("asbr-faults", "campaign --bench=doom --injections=1"),
        "asbr-faults campaign");
}

TEST(CliRobustness, FaultsReplayMissingFile) {
    expectCleanRejection(runTool("asbr-faults", "replay /nonexistent/fr.json"),
                         "asbr-faults replay");
}

TEST(CliRobustness, FaultsReplayMalformedJson) {
    const std::string path = writeTemp("fr_bad.json", "[1, 2, oops");
    expectCleanRejection(runTool("asbr-faults", "replay " + path),
                         "asbr-faults replay");
}

TEST(CliRobustness, FaultsValidateTruncatedReport) {
    // Structurally valid JSON that fails schema validation.
    const std::string path = writeTemp(
        "fr_trunc.json",
        R"({"schema":"asbr.fault_report","version":1,"meta":{}})");
    expectCleanRejection(runTool("asbr-faults", "validate " + path),
                         "asbr-faults validate");
}

TEST(CliRobustness, SweepUnknownWorkloadToken) {
    expectCleanRejection(runTool("asbr-sweep", "--workloads=adpcm-enc,doom"),
                         "asbr-sweep");
}

TEST(CliRobustness, SweepUnknownPredictorToken) {
    expectCleanRejection(runTool("asbr-sweep", "--predictors=oracle2"),
                         "asbr-sweep");
}

TEST(CliRobustness, SweepUnknownStageToken) {
    expectCleanRejection(runTool("asbr-sweep", "--stages=wb_end"),
                         "asbr-sweep");
}

TEST(CliRobustness, SweepEmptyAxisIsRejected) {
    expectCleanRejection(runTool("asbr-sweep", "--bits="), "asbr-sweep");
}

TEST(CliRobustness, FaultsReplayIndexOutOfRange) {
    const std::string path = writeTemp("fr_empty.json", "{}");
    expectCleanRejection(runTool("asbr-faults", "replay " + path +
                                                    " --index=999999"),
                         "asbr-faults replay");
}

// ---- durable-execution flags (docs/robustness.md) -------------------------

TEST(CliRobustness, SweepResumeWithoutJournalIsRejected) {
    expectCleanRejection(runTool("asbr-sweep", "--resume"), "asbr-sweep");
}

TEST(CliRobustness, SweepEmptyJournalDirIsRejected) {
    expectCleanRejection(runTool("asbr-sweep", "--journal="), "asbr-sweep");
}

TEST(CliRobustness, SweepZeroMaxAttemptsIsRejected) {
    const RunResult r = runTool("asbr-sweep", "--max-attempts=0");
    expectCleanRejection(r, "asbr-sweep");
    EXPECT_NE(r.output.find("must be >= 1"), r.output.npos) << r.output;
}

TEST(CliRobustness, FaultsCampaignResumeWithoutJournalIsRejected) {
    expectCleanRejection(
        runTool("asbr-faults", "campaign --bench=adpcm-enc --resume"),
        "asbr-faults campaign");
}

TEST(CliRobustness, FaultsCampaignRejectsSampledSimulation) {
    const RunResult r = runTool(
        "asbr-faults", "campaign --bench=adpcm-enc --sample=1000:1000:8000");
    expectCleanRejection(r, "asbr-faults campaign");
    EXPECT_NE(r.output.find("--sample"), r.output.npos) << r.output;
}

// Each of these specs used to parse into a geometry with zero windows (a
// wrapped sign, an overflowed commit bound, a saturated field) or read an
// empty field as 0, and the run exited 0 with a meaningless report.
TEST(CliRobustness, StatsRunRejectsMalformedSampleSpecs) {
    for (const char* spec : {"-1:2000:5000", "1000:-5:5000",
                             "99999999999999999999:2:3", "1000:2000:",
                             "4611686018427387904:4611686018427387904:1"}) {
        const RunResult r = runTool(
            "asbr-stats",
            std::string("run --bench=adpcm-enc --quick --sample=") + spec);
        expectCleanRejection(r, std::string("--sample=") + spec);
        EXPECT_NE(r.output.find("bad --sample spec"), r.output.npos)
            << spec << ": " << r.output;
    }
}

TEST(CliRobustness, StatsRunRejectsJournalFlags) {
    expectCleanRejection(
        runTool("asbr-stats",
                "run --bench=adpcm-enc --journal=/tmp/nope --quick"),
        "asbr-stats run");
}

TEST(CliRobustness, BenchBinariesRejectJournalFlags) {
    expectCleanRejection(
        runTool("../bench/fig6_baseline", "--quick --resume"),
        "fig6_baseline");
}

TEST_P(CliRobustnessTest, HelpMentionsDurabilityFlags) {
    const RunResult r = runTool(GetParam(), "--help");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    for (const char* flag :
         {"--journal", "--resume", "--job-timeout", "--max-attempts"})
        EXPECT_NE(r.output.find(flag), r.output.npos)
            << GetParam() << " --help does not mention " << flag;
}

}  // namespace
