// Cycle-exact gate for the pipeline: every full-run sim report of a
// codec × predictor × customization grid must serialize to exactly the bytes
// pinned below.  A report carries every pipeline, cache, predictor and ASBR
// counter plus the per-site tables, so any change to simulated timing — one
// cycle, one cache miss, one fold — changes its digest.
//
// The grid is six codecs × {bimodal, bi512, gshare, tage, perceptron} ×
// {baseline; ASBR with the paper's BIT at ex_end, mem_end and commit; a
// 4-entry BIT with parity protection; static folds; predictor-aware
// selection}, on small inputs.  A host-speed change must leave every digest
// alone.  An intended timing change regenerates the table: the failure
// message prints it in source form.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "driver/cli.hpp"
#include "driver/engine.hpp"
#include "driver/journal.hpp"
#include "driver/names.hpp"
#include "report/report.hpp"

namespace {

using namespace asbr;
using namespace asbr::driver;

struct Customization {
    const char* name;
    bool asbr = false;
    std::size_t bitEntries = 0;
    ValueStage stage = ValueStage::kMemEnd;
    bool parity = false;
    bool staticFolds = false;
    bool predictorAware = false;
};

constexpr Customization kCustomizations[] = {
    {"base"},
    {"ex_end", true, 0, ValueStage::kExEnd},
    {"mem_end", true, 0, ValueStage::kMemEnd},
    {"commit", true, 0, ValueStage::kCommit},
    {"bit4-parity", true, 4, ValueStage::kMemEnd, true},
    {"static-folds", true, 0, ValueStage::kMemEnd, false, true},
    {"aware", true, 0, ValueStage::kMemEnd, false, false, true},
};

constexpr const char* kPredictors[] = {"bimodal", "bi512", "gshare", "tage",
                                       "perceptron"};

// fnv1a64 of `simReportJson(report).dump(2)` per cell.
const std::map<std::string, std::string> kPinned = {
    {"adpcm-enc/bimodal/base", "7952e88d6cdbd73f"},
    {"adpcm-enc/bimodal/ex_end", "c3922a08d024113d"},
    {"adpcm-enc/bimodal/mem_end", "1c96f19100dbdebf"},
    {"adpcm-enc/bimodal/commit", "421a0ec2fb63d8fa"},
    {"adpcm-enc/bimodal/bit4-parity", "b48ca13e25fe75ef"},
    {"adpcm-enc/bimodal/static-folds", "1c96f19100dbdebf"},
    {"adpcm-enc/bimodal/aware", "414bfbe8d6f370d7"},
    {"adpcm-enc/bi512/base", "a986d2fd57c547d6"},
    {"adpcm-enc/bi512/ex_end", "6b37b42bf4eaab26"},
    {"adpcm-enc/bi512/mem_end", "3122bb14bd51bade"},
    {"adpcm-enc/bi512/commit", "fd2b8f130e4f4959"},
    {"adpcm-enc/bi512/bit4-parity", "edc923fbe4055d16"},
    {"adpcm-enc/bi512/static-folds", "3122bb14bd51bade"},
    {"adpcm-enc/bi512/aware", "175596765844f372"},
    {"adpcm-enc/gshare/base", "11798562fccd5556"},
    {"adpcm-enc/gshare/ex_end", "c81687c11c9363a1"},
    {"adpcm-enc/gshare/mem_end", "6c25d6de91005605"},
    {"adpcm-enc/gshare/commit", "d7cd317ce5d98b86"},
    {"adpcm-enc/gshare/bit4-parity", "4abc202b728e770d"},
    {"adpcm-enc/gshare/static-folds", "6c25d6de91005605"},
    {"adpcm-enc/gshare/aware", "74829afcbf723774"},
    {"adpcm-enc/tage/base", "620e8715509cd8e3"},
    {"adpcm-enc/tage/ex_end", "f2c6cc3029828069"},
    {"adpcm-enc/tage/mem_end", "5a12e2ed1c2efa85"},
    {"adpcm-enc/tage/commit", "e4effe64a118e500"},
    {"adpcm-enc/tage/bit4-parity", "212f95ca53a169d5"},
    {"adpcm-enc/tage/static-folds", "5a12e2ed1c2efa85"},
    {"adpcm-enc/tage/aware", "e4a09b43766a63dc"},
    {"adpcm-enc/perceptron/base", "df0dc291aa82203c"},
    {"adpcm-enc/perceptron/ex_end", "66ad31c2370dab88"},
    {"adpcm-enc/perceptron/mem_end", "2c44e32d1d9483e2"},
    {"adpcm-enc/perceptron/commit", "9c9517da2c2c3d36"},
    {"adpcm-enc/perceptron/bit4-parity", "803f6cd6b3207ffa"},
    {"adpcm-enc/perceptron/static-folds", "2c44e32d1d9483e2"},
    {"adpcm-enc/perceptron/aware", "a696d84b6450818e"},
    {"adpcm-dec/bimodal/base", "15387515fe7c20b7"},
    {"adpcm-dec/bimodal/ex_end", "7c20731d495184d1"},
    {"adpcm-dec/bimodal/mem_end", "ccd8861b0c319a79"},
    {"adpcm-dec/bimodal/commit", "82e8ee327900a45f"},
    {"adpcm-dec/bimodal/bit4-parity", "d46ade8038174b6c"},
    {"adpcm-dec/bimodal/static-folds", "ccd8861b0c319a79"},
    {"adpcm-dec/bimodal/aware", "565ff1536793d7f3"},
    {"adpcm-dec/bi512/base", "ed6bc45f6ce958f4"},
    {"adpcm-dec/bi512/ex_end", "ae40a64c851e3b9a"},
    {"adpcm-dec/bi512/mem_end", "32ab99da62231228"},
    {"adpcm-dec/bi512/commit", "c7000e3dfbeaea94"},
    {"adpcm-dec/bi512/bit4-parity", "c9de9f6454ad688f"},
    {"adpcm-dec/bi512/static-folds", "32ab99da62231228"},
    {"adpcm-dec/bi512/aware", "c9fdad435af4dc38"},
    {"adpcm-dec/gshare/base", "5606c886e573426e"},
    {"adpcm-dec/gshare/ex_end", "85325c4c14bf094c"},
    {"adpcm-dec/gshare/mem_end", "6e25f8052433410e"},
    {"adpcm-dec/gshare/commit", "63385ef485c8db26"},
    {"adpcm-dec/gshare/bit4-parity", "5c4ad1cfa43febe3"},
    {"adpcm-dec/gshare/static-folds", "6e25f8052433410e"},
    {"adpcm-dec/gshare/aware", "65070370894eaf37"},
    {"adpcm-dec/tage/base", "fa895f9f1fab4b9d"},
    {"adpcm-dec/tage/ex_end", "a5ede5d8e0cf52c8"},
    {"adpcm-dec/tage/mem_end", "345980567f52f6ae"},
    {"adpcm-dec/tage/commit", "88135d980f3359e6"},
    {"adpcm-dec/tage/bit4-parity", "e6947e5a43cc221d"},
    {"adpcm-dec/tage/static-folds", "345980567f52f6ae"},
    {"adpcm-dec/tage/aware", "4bcaed32f89595f5"},
    {"adpcm-dec/perceptron/base", "fd3d11793eec0bd9"},
    {"adpcm-dec/perceptron/ex_end", "23df1be77e3e329d"},
    {"adpcm-dec/perceptron/mem_end", "5a6fdaf1b0b6b2c5"},
    {"adpcm-dec/perceptron/commit", "ee3410343797b683"},
    {"adpcm-dec/perceptron/bit4-parity", "09a07b0d07aad4d8"},
    {"adpcm-dec/perceptron/static-folds", "5a6fdaf1b0b6b2c5"},
    {"adpcm-dec/perceptron/aware", "27366ac904a1ffe3"},
    {"g721-enc/bimodal/base", "b2499319dbee63ad"},
    {"g721-enc/bimodal/ex_end", "1a54a45cd127f127"},
    {"g721-enc/bimodal/mem_end", "4b549477e0d2acad"},
    {"g721-enc/bimodal/commit", "12413133fa6c6d96"},
    {"g721-enc/bimodal/bit4-parity", "7925510d296015ac"},
    {"g721-enc/bimodal/static-folds", "3310a0845f6a3b54"},
    {"g721-enc/bimodal/aware", "5155da10b5dcd18f"},
    {"g721-enc/bi512/base", "0e0b1e844fe5ca75"},
    {"g721-enc/bi512/ex_end", "b3b44bc1309443d2"},
    {"g721-enc/bi512/mem_end", "e759701fadb7e164"},
    {"g721-enc/bi512/commit", "fcc9ba90f4d34ac3"},
    {"g721-enc/bi512/bit4-parity", "6c0d88745ab7185b"},
    {"g721-enc/bi512/static-folds", "52d28c8f89887ec5"},
    {"g721-enc/bi512/aware", "f4b8338c4264339a"},
    {"g721-enc/gshare/base", "5376dbdd78716baf"},
    {"g721-enc/gshare/ex_end", "6ff50c60a599d2aa"},
    {"g721-enc/gshare/mem_end", "0353249d6880df66"},
    {"g721-enc/gshare/commit", "cc3c03b2f08bfb5a"},
    {"g721-enc/gshare/bit4-parity", "56bfa33591230f2e"},
    {"g721-enc/gshare/static-folds", "f026c26c4e055e07"},
    {"g721-enc/gshare/aware", "f94c46134e5cc3cc"},
    {"g721-enc/tage/base", "83010146f86b0f70"},
    {"g721-enc/tage/ex_end", "584465a5c596e1a5"},
    {"g721-enc/tage/mem_end", "c62a32bafe1f767f"},
    {"g721-enc/tage/commit", "19dab43e42b0a25d"},
    {"g721-enc/tage/bit4-parity", "6ed7dc36c1408285"},
    {"g721-enc/tage/static-folds", "7ff72f1347f5e56b"},
    {"g721-enc/tage/aware", "9ebbcf00a5bbc6b3"},
    {"g721-enc/perceptron/base", "3d54273a9ff0a6f4"},
    {"g721-enc/perceptron/ex_end", "d3470475e2f6ff98"},
    {"g721-enc/perceptron/mem_end", "7c56bed4dc101098"},
    {"g721-enc/perceptron/commit", "f26fcea47040c736"},
    {"g721-enc/perceptron/bit4-parity", "9a3c07d6eabdead6"},
    {"g721-enc/perceptron/static-folds", "f19638241bfa75f8"},
    {"g721-enc/perceptron/aware", "bef11728fca5cb81"},
    {"g721-dec/bimodal/base", "868ae038f17f17f4"},
    {"g721-dec/bimodal/ex_end", "5b75c3d1337a16ac"},
    {"g721-dec/bimodal/mem_end", "22f2ae175cafa59a"},
    {"g721-dec/bimodal/commit", "87871047af3d0acb"},
    {"g721-dec/bimodal/bit4-parity", "3f70b52253017106"},
    {"g721-dec/bimodal/static-folds", "11e8bafb126ba0d2"},
    {"g721-dec/bimodal/aware", "f8fe9889861e6c4f"},
    {"g721-dec/bi512/base", "9f270d8feb77b157"},
    {"g721-dec/bi512/ex_end", "54afa6024ccad24d"},
    {"g721-dec/bi512/mem_end", "56e62ff54e4f8ec9"},
    {"g721-dec/bi512/commit", "8933de0c11f62680"},
    {"g721-dec/bi512/bit4-parity", "9ee817741497244f"},
    {"g721-dec/bi512/static-folds", "bfdcf8a50d38a37f"},
    {"g721-dec/bi512/aware", "63ffef6295810878"},
    {"g721-dec/gshare/base", "3e70a72f60d0da9d"},
    {"g721-dec/gshare/ex_end", "7a512f8bf62c6496"},
    {"g721-dec/gshare/mem_end", "185952353574a36d"},
    {"g721-dec/gshare/commit", "9ce640103d61b0f2"},
    {"g721-dec/gshare/bit4-parity", "bced98fada6f5bd0"},
    {"g721-dec/gshare/static-folds", "db85eaabb15c9ffa"},
    {"g721-dec/gshare/aware", "4d32ad56d6e7c462"},
    {"g721-dec/tage/base", "2d9f3c67f331c253"},
    {"g721-dec/tage/ex_end", "ee74c0aa147ba89d"},
    {"g721-dec/tage/mem_end", "e53d1057abc46ac1"},
    {"g721-dec/tage/commit", "8b972eea617f8c20"},
    {"g721-dec/tage/bit4-parity", "b79324ccdd782ef7"},
    {"g721-dec/tage/static-folds", "cb0ca9fbe45febdf"},
    {"g721-dec/tage/aware", "a07362c533b126c2"},
    {"g721-dec/perceptron/base", "455270b32a963cb9"},
    {"g721-dec/perceptron/ex_end", "2bb14ba8577f47e7"},
    {"g721-dec/perceptron/mem_end", "27da09c075f430d3"},
    {"g721-dec/perceptron/commit", "3ffe91daf5678eb5"},
    {"g721-dec/perceptron/bit4-parity", "87a57e0bc08da710"},
    {"g721-dec/perceptron/static-folds", "11155423e5046498"},
    {"g721-dec/perceptron/aware", "78d940a3f3bc0833"},
    {"g711-enc/bimodal/base", "9453d354dd1ceae2"},
    {"g711-enc/bimodal/ex_end", "8430caa889509c94"},
    {"g711-enc/bimodal/mem_end", "3539ed6b6fc530eb"},
    {"g711-enc/bimodal/commit", "1f1faf8b363aa3d5"},
    {"g711-enc/bimodal/bit4-parity", "0302adddfe244760"},
    {"g711-enc/bimodal/static-folds", "5982f6a5c0da035d"},
    {"g711-enc/bimodal/aware", "bbba2b7b5fac3e27"},
    {"g711-enc/bi512/base", "2855c272bb407e1d"},
    {"g711-enc/bi512/ex_end", "c3306e28d5937f21"},
    {"g711-enc/bi512/mem_end", "1d1b96ae68d09d16"},
    {"g711-enc/bi512/commit", "37dc7d02750809fa"},
    {"g711-enc/bi512/bit4-parity", "f8c60bf1a79271fd"},
    {"g711-enc/bi512/static-folds", "fd5c5ed631375892"},
    {"g711-enc/bi512/aware", "6b57ef783fb8069c"},
    {"g711-enc/gshare/base", "524228438fc020b0"},
    {"g711-enc/gshare/ex_end", "a9c155cc49a54906"},
    {"g711-enc/gshare/mem_end", "d7391bf0bff575ee"},
    {"g711-enc/gshare/commit", "a92ecb6d02734202"},
    {"g711-enc/gshare/bit4-parity", "2cd2c9ff9c6cb0c7"},
    {"g711-enc/gshare/static-folds", "7ccd29a563bab2c1"},
    {"g711-enc/gshare/aware", "ee6e4688c5370a5d"},
    {"g711-enc/tage/base", "2a1ed5a85671eba4"},
    {"g711-enc/tage/ex_end", "8c5fea3b415841c6"},
    {"g711-enc/tage/mem_end", "22ab887d70441e0e"},
    {"g711-enc/tage/commit", "893a65d8d81bedf6"},
    {"g711-enc/tage/bit4-parity", "87a8715d35125709"},
    {"g711-enc/tage/static-folds", "04549055b396f1b5"},
    {"g711-enc/tage/aware", "c170b131415f7716"},
    {"g711-enc/perceptron/base", "cbe84ffac42eaf84"},
    {"g711-enc/perceptron/ex_end", "e34ee1be8089dcab"},
    {"g711-enc/perceptron/mem_end", "5dce520e5b64de3b"},
    {"g711-enc/perceptron/commit", "5b90666710ef188d"},
    {"g711-enc/perceptron/bit4-parity", "506633c8159929be"},
    {"g711-enc/perceptron/static-folds", "960088be0ae63972"},
    {"g711-enc/perceptron/aware", "a2fd3613d0f587cc"},
    {"g711-dec/bimodal/base", "9f4101a6cedf99a7"},
    {"g711-dec/bimodal/ex_end", "a4c0c9b1422d9470"},
    {"g711-dec/bimodal/mem_end", "0a0bb0a3c309efa8"},
    {"g711-dec/bimodal/commit", "9cc12d3f23855eae"},
    {"g711-dec/bimodal/bit4-parity", "ae607db2d7b4990f"},
    {"g711-dec/bimodal/static-folds", "0a0bb0a3c309efa8"},
    {"g711-dec/bimodal/aware", "9a0bebc21d67e6a1"},
    {"g711-dec/bi512/base", "512d99910bc6d49c"},
    {"g711-dec/bi512/ex_end", "a87359d65b3b7a6b"},
    {"g711-dec/bi512/mem_end", "85f2ef97a5b08f19"},
    {"g711-dec/bi512/commit", "37626f8a32faee8d"},
    {"g711-dec/bi512/bit4-parity", "2bf16cf4c83295fe"},
    {"g711-dec/bi512/static-folds", "85f2ef97a5b08f19"},
    {"g711-dec/bi512/aware", "3fb65f4291d680ae"},
    {"g711-dec/gshare/base", "69ef6a6dd0174025"},
    {"g711-dec/gshare/ex_end", "9d4a67cdade29603"},
    {"g711-dec/gshare/mem_end", "03297fc91993ce7d"},
    {"g711-dec/gshare/commit", "fc8564febb8aae81"},
    {"g711-dec/gshare/bit4-parity", "4965dc73808481c0"},
    {"g711-dec/gshare/static-folds", "03297fc91993ce7d"},
    {"g711-dec/gshare/aware", "4a2064562e4b413c"},
    {"g711-dec/tage/base", "b3ac2cc8e6a624ca"},
    {"g711-dec/tage/ex_end", "8a8fd21fd4fee545"},
    {"g711-dec/tage/mem_end", "5645ae108e1dfe6f"},
    {"g711-dec/tage/commit", "8175318713460ce7"},
    {"g711-dec/tage/bit4-parity", "0620f576a1fc3a0c"},
    {"g711-dec/tage/static-folds", "5645ae108e1dfe6f"},
    {"g711-dec/tage/aware", "f75789a6546ee50e"},
    {"g711-dec/perceptron/base", "eef6444465e29f8d"},
    {"g711-dec/perceptron/ex_end", "c83c787f39217fbd"},
    {"g711-dec/perceptron/mem_end", "05f9106abb3e71cd"},
    {"g711-dec/perceptron/commit", "4ca475fcfe7f1ccb"},
    {"g711-dec/perceptron/bit4-parity", "e37813de22793cc0"},
    {"g711-dec/perceptron/static-folds", "05f9106abb3e71cd"},
    {"g711-dec/perceptron/aware", "5bc3fe708db10e62"},
};

std::string cellName(const SimJob& job, const Customization& c) {
    return std::string(benchToken(job.workload)) + "/" + job.predictor + "/" +
           c.name;
}

TEST(CycleExactGate, EveryCellReportMatchesItsPinnedDigest) {
    CliOptions options;
    options.adpcmSamples = 2'000;
    options.g721Samples = 300;

    std::vector<SimJob> jobs;
    std::vector<std::string> names;
    for (const BenchId id : kAllBenchesExtended)
        for (const char* predictor : kPredictors)
            for (const Customization& c : kCustomizations) {
                SimJob job;
                job.workload = id;
                job.seed = options.seed;
                job.samples = samplesFor(options, id);
                job.predictor = predictor;
                job.figure = "cycle-exact";
                job.asbr = c.asbr;
                job.bitEntries = c.bitEntries;
                job.updateStage = c.stage;
                job.parityProtected = c.parity;
                job.staticFolds = c.staticFolds;
                job.predictorAware = c.predictorAware;
                jobs.push_back(job);
                names.push_back(cellName(job, c));
            }

    SimEngine engine({.threads = 2});
    const std::vector<JobResult> results = engine.run(jobs);
    ASSERT_EQ(results.size(), jobs.size());

    std::string table;
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const std::string digest =
            fnv1a64Hex(simReportJson(results[i].report).dump(2));
        table += "    {\"" + names[i] + "\", \"" + digest + "\"},\n";
        const auto pinned = kPinned.find(names[i]);
        if (pinned == kPinned.end() || pinned->second != digest) {
            ++mismatches;
            ADD_FAILURE() << names[i] << ": report digest " << digest
                          << (pinned == kPinned.end()
                                  ? " has no pinned value"
                                  : " != pinned " + pinned->second);
        }
    }
    EXPECT_EQ(kPinned.size(), jobs.size());
    if (mismatches > 0 || kPinned.size() != jobs.size())
        std::fprintf(stderr, "digest table:\n%s", table.c_str());
}

}  // namespace
