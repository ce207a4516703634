// Unit tests for the branch predictor library.
#include <gtest/gtest.h>

#include "bp/predictor.hpp"
#include "bp/bimodal.hpp"
#include "bp/gshare.hpp"
#include "bp/registry.hpp"
#include "bp/tournament.hpp"
#include "bp/static_predictors.hpp"
#include "util/rng.hpp"

namespace asbr {
namespace {

TEST(BtbTest, MissUpdateHit) {
    Btb btb(16);
    EXPECT_FALSE(btb.lookup(0x1000).has_value());
    btb.update(0x1000, 0x2000);
    EXPECT_EQ(btb.lookup(0x1000), 0x2000u);
}

TEST(BtbTest, AliasingEvicts) {
    Btb btb(16);
    btb.update(0x1000, 0x2000);
    btb.update(0x1000 + 16 * 4, 0x3000);  // same index, different tag
    EXPECT_FALSE(btb.lookup(0x1000).has_value());
    EXPECT_EQ(btb.lookup(0x1000 + 16 * 4), 0x3000u);
}

TEST(BtbTest, TagPreventsFalseHit) {
    Btb btb(16);
    btb.update(0x1000, 0x2000);
    EXPECT_FALSE(btb.lookup(0x1000 + 16 * 4).has_value());
}

TEST(NotTakenTest, AlwaysPredictsNotTaken) {
    NotTakenPredictor p;
    for (int i = 0; i < 10; ++i) {
        p.update(0x1000, true, 0x2000);
        EXPECT_FALSE(p.predict(0x1000).effectiveTaken());
    }
    EXPECT_EQ(p.storageBits(), 0u);
}

TEST(BimodalTest, LearnsStableDirection) {
    BimodalPredictor p(64, 64);
    // Train taken.
    for (int i = 0; i < 4; ++i) p.update(0x1000, true, 0x2000);
    EXPECT_TRUE(p.predict(0x1000).taken);
    EXPECT_EQ(p.predict(0x1000).target, 0x2000u);
    EXPECT_TRUE(p.predict(0x1000).effectiveTaken());
    // Saturating: one not-taken does not flip it.
    p.update(0x1000, false, 0x2000);
    EXPECT_TRUE(p.predict(0x1000).taken);
    // Two more do.
    p.update(0x1000, false, 0x2000);
    p.update(0x1000, false, 0x2000);
    EXPECT_FALSE(p.predict(0x1000).taken);
}

TEST(BimodalTest, InitialStateIsWeaklyNotTaken) {
    BimodalPredictor p(64, 64);
    EXPECT_FALSE(p.predict(0x1000).taken);
    p.update(0x1000, true, 0x2000);
    EXPECT_TRUE(p.predict(0x1000).taken);  // counter 1 -> 2
}

TEST(BimodalTest, PredictTakenWithoutBtbEntryCannotRedirect) {
    BimodalPredictor p(64, 4);
    // Train direction via a PC whose BTB entry later gets evicted by an alias.
    for (int i = 0; i < 3; ++i) p.update(0x1000, true, 0x2000);
    p.update(0x1000 + 4 * 4, true, 0x9000);  // evicts 0x1000's BTB entry
    const Prediction pr = p.predict(0x1000);
    EXPECT_TRUE(pr.taken);
    EXPECT_FALSE(pr.target.has_value());
    EXPECT_FALSE(pr.effectiveTaken());
}

TEST(BimodalTest, CounterAliasingSharesState) {
    BimodalPredictor p(4, 4);  // tiny: pcs 16 bytes apart alias
    for (int i = 0; i < 4; ++i) p.update(0x1000, true, 0x2000);
    EXPECT_TRUE(p.predict(0x1000 + 4 * 4).taken);  // aliased counter
}

TEST(BimodalTest, StorageBits) {
    BimodalPredictor p(2048, 2048);
    EXPECT_EQ(p.storageBits(), 2048u * 2 + 2048u * 61);
    EXPECT_EQ(p.name(), "bimodal-2048/btb-2048");
}

TEST(GShareTest, LearnsAlternatingPatternViaHistory) {
    GSharePredictor p(8, 1024, 1024);
    // Alternating T/N/T/N at one PC: bimodal oscillates, gshare learns.
    bool taken = false;
    for (int i = 0; i < 200; ++i) {
        taken = !taken;
        p.update(0x1000, taken, 0x2000);
    }
    int correct = 0;
    taken = false;
    for (int i = 0; i < 100; ++i) {
        taken = !taken;
        if (p.predict(0x1000).taken == taken) ++correct;
        p.update(0x1000, taken, 0x2000);
    }
    EXPECT_GE(correct, 95);
}

TEST(GShareTest, BimodalCannotLearnAlternating) {
    BimodalPredictor p(1024, 1024);
    bool taken = false;
    int correct = 0;
    for (int i = 0; i < 200; ++i) {
        taken = !taken;
        if (p.predict(0x1000).taken == taken && i >= 100) ++correct;
        p.update(0x1000, taken, 0x2000);
    }
    EXPECT_LE(correct, 60);  // ~50% at best
}

TEST(GShareTest, CorrelatedBranchesLearned) {
    // B2 always equals B1's outcome; B1 is random.  gshare with history
    // should predict B2 nearly perfectly once trained.
    GSharePredictor p(8, 4096, 1024);
    Xorshift64 rng(42);
    int b2Correct = 0, b2Total = 0;
    for (int i = 0; i < 5000; ++i) {
        const bool b1 = rng.chance(0.5);
        p.update(0x1000, b1, 0x2000);
        const bool predictedB2 = p.predict(0x1040).taken;
        if (i > 1000) {
            ++b2Total;
            if (predictedB2 == b1) ++b2Correct;
        }
        p.update(0x1040, b1, 0x3000);
    }
    EXPECT_GT(static_cast<double>(b2Correct) / b2Total, 0.9);
}

TEST(GShareTest, ResetRestoresInitialState) {
    GSharePredictor p(8, 64, 64);
    for (int i = 0; i < 10; ++i) p.update(0x1000, true, 0x2000);
    p.reset();
    EXPECT_FALSE(p.predict(0x1000).taken);
}

TEST(TournamentTest, ChoosesBetterComponentPerBranch) {
    // Branch A alternates (gshare-friendly); branch B is heavily biased
    // (bimodal-friendly).  The tournament should approach the better
    // component on each.
    TournamentPredictor p(1024, 1024, 8, 1024);
    Xorshift64 rng(5);
    int correctA = 0, correctB = 0, total = 0;
    bool a = false;
    for (int i = 0; i < 4000; ++i) {
        a = !a;
        if (i > 2000) {
            ++total;
            if (p.predict(0x1000).taken == a) ++correctA;
        }
        p.update(0x1000, a, 0x2000);
        const bool b = rng.chance(0.9);
        if (i > 2000 && p.predict(0x2000).taken == b) ++correctB;
        p.update(0x2000, b, 0x3000);
    }
    EXPECT_GT(static_cast<double>(correctA) / total, 0.9);   // learned pattern
    EXPECT_GT(static_cast<double>(correctB) / total, 0.75);  // tracked bias
}

TEST(TournamentTest, ResetAndStorage) {
    TournamentPredictor p(2048, 2048, 11, 2048);
    for (int i = 0; i < 10; ++i) p.update(0x1000, true, 0x2000);
    EXPECT_TRUE(p.predict(0x1000).taken);
    p.reset();
    EXPECT_FALSE(p.predict(0x1000).taken);
    // Three 2-bit tables + history + BTB: bigger than bimodal, comparable
    // order to gshare.
    EXPECT_GT(p.storageBits(), makeBimodal2048()->storageBits());
    EXPECT_EQ(PredictorRegistry::instance().make("tournament")->name(),
              "tournament-2048/btb-2048");
}

TEST(FactoryTest, PaperConfigurations) {
    EXPECT_EQ(makeNotTaken()->name(), "not taken");
    EXPECT_EQ(makeBimodal2048()->name(), "bimodal-2048/btb-2048");
    EXPECT_EQ(makeGshare2048()->name(), "gshare-11/2048/btb-2048");
    EXPECT_EQ(makeBimodal(512, 512)->name(), "bimodal-512/btb-512");
}

// Property: on a heavily-biased random stream every dynamic predictor beats
// a coin flip, and storage ordering not-taken < bimodal-256 < bimodal-2048.
TEST(PredictorProperty, BiasedStreamAccuracy) {
    Xorshift64 rng(99);
    auto run = [&rng](BranchPredictor& p) {
        Xorshift64 local(1234);
        int correct = 0;
        const int n = 4000;
        for (int i = 0; i < n; ++i) {
            const std::uint32_t pc = 0x1000 + static_cast<std::uint32_t>(
                                                  local.below(8)) * 4;
            const bool taken = local.chance(0.85);
            if (p.predict(pc).taken == taken) ++correct;
            p.update(pc, taken, pc + 64);
        }
        (void)rng;
        return static_cast<double>(correct) / n;
    };
    const auto bimodal = makeBimodal2048();
    const auto gshare = makeGshare2048();
    EXPECT_GT(run(*bimodal), 0.8);
    EXPECT_GT(run(*gshare), 0.6);  // history dilution hurts on short streams
    EXPECT_LT(makeBimodal(256, 512)->storageBits(),
              makeBimodal2048()->storageBits());
    EXPECT_LT(makeNotTaken()->storageBits(),
              makeBimodal(256, 512)->storageBits());
}

}  // namespace
}  // namespace asbr
