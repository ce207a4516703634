// End-to-end tests for the mcc compiler: compile, run on the functional ISS,
// check outputs.
#include <gtest/gtest.h>

#include "cc/compile.hpp"
#include "mem/memory.hpp"
#include "sim/functional.hpp"

namespace asbr::cc {
namespace {

/// Compile and run; returns the program's printed output.
std::string runC(const std::string& source, std::int32_t* exitCode = nullptr,
                 bool schedule = true) {
    CompileOptions opts;
    opts.scheduleConditions = schedule;
    const Compiled compiled = compile(source, opts);
    Memory mem;
    mem.loadProgram(compiled.program);
    FunctionalSim sim(compiled.program, mem);
    const FunctionalResult r = sim.run(50'000'000);
    EXPECT_TRUE(r.exited);
    if (exitCode) *exitCode = r.exitCode;
    return r.output;
}

std::int32_t exitOf(const std::string& source) {
    std::int32_t code = 0;
    runC(source, &code);
    return code;
}

TEST(CcTest, MainReturnBecomesExitCode) {
    EXPECT_EQ(exitOf("int main() { return 42; }"), 42);
    EXPECT_EQ(exitOf("int main() { return -7; }"), -7);
}

TEST(CcTest, PutIntAndPutChar) {
    EXPECT_EQ(runC(R"(
int main() {
    __putint(123);
    __putchar(44);
    __putint(-5);
    return 0;
}
)"), "123,-5");
}

TEST(CcTest, ArithmeticAndPrecedence) {
    EXPECT_EQ(exitOf("int main() { return 2 + 3 * 4; }"), 14);
    EXPECT_EQ(exitOf("int main() { return (2 + 3) * 4; }"), 20);
    EXPECT_EQ(exitOf("int main() { return 7 / 2; }"), 3);
    EXPECT_EQ(exitOf("int main() { return -7 / 2; }"), -3);
    EXPECT_EQ(exitOf("int main() { return 7 % 3; }"), 1);
    EXPECT_EQ(exitOf("int main() { return -7 % 3; }"), -1);
    EXPECT_EQ(exitOf("int main() { return 1 << 10; }"), 1024);
    EXPECT_EQ(exitOf("int main() { return -16 >> 2; }"), -4);
    EXPECT_EQ(exitOf("int main() { return 0xF0 | 0x0F; }"), 255);
    EXPECT_EQ(exitOf("int main() { return 0xFF & 0x3C; }"), 0x3C);
    EXPECT_EQ(exitOf("int main() { return 0xFF ^ 0x0F; }"), 0xF0);
    EXPECT_EQ(exitOf("int main() { return ~0; }"), -1);
    EXPECT_EQ(exitOf("int main() { return !5; }"), 0);
    EXPECT_EQ(exitOf("int main() { return !0; }"), 1);
    EXPECT_EQ(exitOf("int main() { return -(3 - 8); }"), 5);
}

TEST(CcTest, Comparisons) {
    EXPECT_EQ(exitOf("int main() { return 3 < 4; }"), 1);
    EXPECT_EQ(exitOf("int main() { return 4 < 3; }"), 0);
    EXPECT_EQ(exitOf("int main() { return 3 <= 3; }"), 1);
    EXPECT_EQ(exitOf("int main() { return 4 > 3; }"), 1);
    EXPECT_EQ(exitOf("int main() { return 3 >= 4; }"), 0);
    EXPECT_EQ(exitOf("int main() { return 3 == 3; }"), 1);
    EXPECT_EQ(exitOf("int main() { return 3 != 3; }"), 0);
    EXPECT_EQ(exitOf("int main() { return -1 < 1; }"), 1);  // signed compare
    EXPECT_EQ(exitOf("int main() { int x = 5; return x == 5; }"), 1);
    EXPECT_EQ(exitOf("int main() { int x = 70000; return x == 70000; }"), 1);
}

TEST(CcTest, LogicalOperatorsShortCircuit) {
    EXPECT_EQ(exitOf("int main() { return 1 && 2; }"), 1);
    EXPECT_EQ(exitOf("int main() { return 1 && 0; }"), 0);
    EXPECT_EQ(exitOf("int main() { return 0 || 3; }"), 1);
    EXPECT_EQ(exitOf("int main() { return 0 || 0; }"), 0);
    // Short-circuit: the second operand must not run.
    EXPECT_EQ(runC(R"(
int hit(int v) { __putint(v); return v; }
int main() {
    0 && hit(1);
    1 || hit(2);
    1 && hit(3);
    0 || hit(4);
    return 0;
}
)"), "34");
}

TEST(CcTest, TernaryOperator) {
    EXPECT_EQ(exitOf("int main() { return 1 ? 10 : 20; }"), 10);
    EXPECT_EQ(exitOf("int main() { return 0 ? 10 : 20; }"), 20);
    EXPECT_EQ(exitOf(
        "int main() { int x = 7; return x > 5 ? x * 2 : x - 1; }"), 14);
}

TEST(CcTest, LocalsAndAssignment) {
    EXPECT_EQ(exitOf(R"(
int main() {
    int a = 3, b;
    b = a + 4;
    a = b = b + 1;
    return a * 10 + b;
}
)"), 88);
}

TEST(CcTest, CompoundAssignment) {
    EXPECT_EQ(exitOf(R"(
int main() {
    int x = 10;
    x += 5; x -= 3; x *= 2; x /= 3; x %= 5;
    x <<= 3; x |= 1; x ^= 2; x &= 0xFE; x >>= 1;
    return x;
}
)"), ((((((((10 + 5 - 3) * 2 / 3) % 5) << 3) | 1) ^ 2) & 0xFE) >> 1));
}

TEST(CcTest, IncrementDecrement) {
    EXPECT_EQ(exitOf(R"(
int main() {
    int x = 5;
    int a = x++;   // a=5 x=6
    int b = ++x;   // b=7 x=7
    int c = x--;   // c=7 x=6
    int d = --x;   // d=5 x=5
    return a * 1000 + b * 100 + c * 10 + d;
}
)"), 5775);
}

TEST(CcTest, GlobalScalarsAndInitializers) {
    EXPECT_EQ(exitOf(R"(
int g;
int h = 12;
short s = -3;
char c = 200;   // truncates to -56 signed
int main() {
    g = h + s;          // 9
    return g * 10 + (c == -56);
}
)"), 91);
}

TEST(CcTest, GlobalArrays) {
    EXPECT_EQ(exitOf(R"(
int a[5] = {10, 20, 30};
short t[4] = {-1, 32767, -32768, 5};
char bytes[3];
int main() {
    int i;
    int sum = 0;
    a[3] = 40;
    a[4] = a[0] + 1;
    for (i = 0; i < 5; i++) sum += a[i];
    bytes[0] = 255;      // -1 as signed char
    return sum + t[0] + bytes[0];   // 111 - 1 - 1
}
)"), 10 + 20 + 30 + 40 + 11 - 1 - 1);
}

TEST(CcTest, ShortArraySignedness) {
    EXPECT_EQ(exitOf(R"(
short t[2];
int main() {
    t[0] = 40000;        // wraps to -25536 in a signed short
    return t[0] == -25536;
}
)"), 1);
}

TEST(CcTest, ArrayElementCompoundAndIncrement) {
    EXPECT_EQ(exitOf(R"(
int a[3] = {1, 2, 3};
int main() {
    int i = 1;
    a[0] += 9;       // 10
    a[i] *= 5;       // 10
    a[i + 1]++;      // 4
    ++a[2];          // 5
    int old = a[2]--;  // old=5, a[2]=4
    return a[0] + a[1] + a[2] + old;
}
)"), 10 + 10 + 4 + 5);
}

TEST(CcTest, WhileAndDoWhile) {
    EXPECT_EQ(exitOf(R"(
int main() {
    int n = 0, i = 0;
    while (i < 10) { n += i; i++; }
    do { n++; } while (0);
    return n;
}
)"), 46);
}

TEST(CcTest, ForWithBreakContinue) {
    EXPECT_EQ(exitOf(R"(
int main() {
    int sum = 0;
    for (int i = 0; i < 100; i++) {
        if (i % 2) continue;
        if (i >= 10) break;
        sum += i;        // 0+2+4+6+8
    }
    return sum;
}
)"), 20);
}

TEST(CcTest, NestedLoops) {
    EXPECT_EQ(exitOf(R"(
int main() {
    int total = 0;
    for (int i = 0; i < 5; i++)
        for (int j = 0; j <= i; j++)
            total += j;
    return total;
}
)"), 0 + 1 + 3 + 6 + 10);
}

TEST(CcTest, FunctionsAndRecursion) {
    EXPECT_EQ(exitOf(R"(
int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}
int main() { return fib(12); }
)"), 144);
}

TEST(CcTest, FourArgumentsAndNestedCalls) {
    EXPECT_EQ(exitOf(R"(
int weigh(int a, int b, int c, int d) { return a + 10*b + 100*c + 1000*d; }
int inc(int x) { return x + 1; }
int main() { return weigh(inc(0), inc(1), inc(2), inc(3)); }
)"), 1 + 20 + 300 + 4000);
}

TEST(CcTest, ManyLocalsSpillToStack) {
    // 12 locals: 8 in s-regs, 4 on the stack.
    EXPECT_EQ(exitOf(R"(
int main() {
    int a = 1, b = 2, c = 3, d = 4, e = 5, f = 6;
    int g = 7, h = 8, i = 9, j = 10, k = 11, l = 12;
    return a + b + c + d + e + f + g + h + i + j + k + l;
}
)"), 78);
}

TEST(CcTest, VoidFunctions) {
    EXPECT_EQ(runC(R"(
int counter;
void bump(int by) { counter += by; }
int main() {
    bump(3);
    bump(4);
    __putint(counter);
    return 0;
}
)"), "7");
}

TEST(CcTest, CallerSavedTempsSurviveCalls) {
    // A call in the middle of an expression must not clobber the pending
    // left operand.
    EXPECT_EQ(exitOf(R"(
int id(int x) { return x; }
int main() { return 100 + id(23) + 1000 * id(2); }
)"), 2123);
}

TEST(CcTest, GlobalShortScalarRoundTrip) {
    EXPECT_EQ(exitOf(R"(
short acc = 100;
int main() {
    acc += 30000;     // 30100 fits
    acc += 10000;     // 40100 wraps to -25436
    return acc == -25436;
}
)"), 1);
}

TEST(CcTest, CommentsAndHexLiterals) {
    EXPECT_EQ(exitOf(R"(
// line comment
/* block
   comment */
int main() { return 0x10 + 0xF; /* trailing */ }
)"), 31);
}

TEST(CcTest, ConstConstantFoldedInitializers) {
    EXPECT_EQ(exitOf(R"(
int table[4] = {1 << 4, 3 * 5 + 1, -(2 + 2), 7 % 4};
int main() { return table[0] + table[1] + table[2] + table[3]; }
)"), 16 + 16 - 4 + 3);
}

TEST(CcTest, DeepExpressionWithinTempBudget) {
    EXPECT_EQ(exitOf(
        "int main() { return ((((((1+2)*3)+4)*5)+6)*7) % 251; }"), (((((1+2)*3)+4)*5)+6)*7 % 251);
}

TEST(CcTest, SchedulingPreservesSemantics) {
    const std::string adaptive = R"(
int hist[8];
int main() {
    int acc = 0;
    int step = 3;
    for (int i = 0; i < 200; i++) {
        int delta = (i * 7) % 13 - 6;
        step += delta;
        if (step < 0) step = 0;
        if (step > 48) step = 48;
        acc += step;
        hist[step & 7] += 1;
    }
    __putint(acc);
    __putchar(32);
    __putint(hist[3]);
    return acc % 100;
}
)";
    std::int32_t withSched = 0, without = 0;
    const std::string outS = runC(adaptive, &withSched, true);
    const std::string outN = runC(adaptive, &without, false);
    EXPECT_EQ(outS, outN);
    EXPECT_EQ(withSched, without);
}

TEST(CcTest, BitbankIntrinsicEmitsControlStore) {
    const Compiled c = compile("int main() { __bitbank(1); return 0; }");
    EXPECT_NE(c.assembly.find("lui at, 0xFFFF"), std::string::npos);
}


TEST(CcTest, ContinueInWhileLoop) {
    // Exercises the bottom-tested while rotation with a used continue label.
    EXPECT_EQ(exitOf(R"(
int main() {
    int i = 0, sum = 0;
    while (i < 20) {
        i++;
        if (i % 3 == 0) continue;
        sum += i;
    }
    return sum;   // 1..20 minus multiples of 3: 210 - (3+6+..+18)=210-63
}
)"), 147);
}

TEST(CcTest, ContinueInDoWhile) {
    EXPECT_EQ(exitOf(R"(
int main() {
    int i = 0, n = 0;
    do {
        i++;
        if (i & 1) continue;
        n++;
    } while (i < 10);
    return n;   // even values 2,4,6,8,10
}
)"), 5);
}

TEST(CcTest, ContinueBindsToInnerLoop) {
    EXPECT_EQ(exitOf(R"(
int main() {
    int count = 0;
    for (int i = 0; i < 3; i++) {
        for (int j = 0; j < 4; j++) {
            if (j == 1) continue;   // inner continue only
            count++;
        }
        count += 10;
    }
    return count;   // 3 * (3 + 10)
}
)"), 39);
}

TEST(CcTest, WhileFalseNeverExecutes) {
    // Entry guard of the rotated while must prevent the first iteration.
    EXPECT_EQ(exitOf(R"(
int main() {
    int n = 0;
    while (0) n++;
    int i = 5;
    while (i < 3) n += 100;
    return n;
}
)"), 0);
}

TEST(CcTest, DoWhileAlwaysRunsOnce) {
    EXPECT_EQ(exitOf("int main() { int n = 0; do n++; while (0); return n; }"),
              1);
}

TEST(CcTest, ForWithoutCondition) {
    EXPECT_EQ(exitOf(R"(
int main() {
    int i = 0;
    for (;;) {
        i++;
        if (i == 7) break;
    }
    return i;
}
)"), 7);
}

TEST(CcTest, NestedTernary) {
    EXPECT_EQ(exitOf(R"(
int grade(int s) { return s > 89 ? 4 : s > 79 ? 3 : s > 69 ? 2 : 0; }
int main() { return grade(95) * 1000 + grade(85) * 100 + grade(75) * 10
                    + grade(50); }
)"), 4320);
}

TEST(CcTest, UnaryChains) {
    EXPECT_EQ(exitOf("int main() { return - - 5; }"), 5);
    EXPECT_EQ(exitOf("int main() { return !!7; }"), 1);
    EXPECT_EQ(exitOf("int main() { return ~~9; }"), 9);
    EXPECT_EQ(exitOf("int main() { int x = 4; return -x + !x + ~x; }"), -9);
    EXPECT_EQ(exitOf("int main() { int x = 0; if (!x) return 3; return 4; }"), 3);
    EXPECT_EQ(exitOf("int main() { int x = 2; if (!!x) return 3; return 4; }"), 3);
}

TEST(CcTest, ZeroCompareBranchesAllForms) {
    // Each comparison-to-zero form maps to a direct ISA branch; verify the
    // semantics across negative/zero/positive.
    const std::string src = R"(
int probe(int v) {
    int r = 0;
    if (v < 0)  r |= 1;
    if (v <= 0) r |= 2;
    if (v > 0)  r |= 4;
    if (v >= 0) r |= 8;
    if (v == 0) r |= 16;
    if (v != 0) r |= 32;
    return r;
}
int main() { return probe(-5) * 10000 + probe(0) * 100 + probe(9); }
)";
    EXPECT_EQ(exitOf(src), (1 + 2 + 32) * 10000 + (2 + 8 + 16) * 100 +
                               (4 + 8 + 32));
}

TEST(CcTest, ShortCircuitInConditions) {
    EXPECT_EQ(exitOf(R"(
int zero() { return 0; }
int main() {
    int guard = 0;
    if (zero() && (guard = 1)) return 99;
    if (guard) return 98;
    if (zero() || 1) return 42;
    return 0;
}
)"), 42);
}

TEST(CcTest, PrecedenceMatrix) {
    EXPECT_EQ(exitOf("int main() { return 1 | 2 ^ 3 & 5; }"), 1 | (2 ^ (3 & 5)));
    EXPECT_EQ(exitOf("int main() { return 1 + 2 << 3; }"), (1 + 2) << 3);
    EXPECT_EQ(exitOf("int main() { return 16 >> 1 + 2; }"), 16 >> 3);
    EXPECT_EQ(exitOf("int main() { return 1 < 2 == 1; }"), 1);
    EXPECT_EQ(exitOf("int main() { return 0 || 1 && 0; }"), 0 || (1 && 0));
    EXPECT_EQ(exitOf("int main() { return 10 - 4 - 3; }"), 3);   // left assoc
    EXPECT_EQ(exitOf("int main() { return 100 / 10 / 2; }"), 5);
}

TEST(CcTest, GlobalsSurviveAcrossCalls) {
    EXPECT_EQ(exitOf(R"(
int counter;
int bump() { counter++; return counter; }
int main() {
    bump(); bump(); bump();
    return counter;
}
)"), 3);
}

TEST(CcTest, RecursionDepthAndStackDiscipline) {
    EXPECT_EQ(exitOf(R"(
int sum_to(int n) {
    if (n == 0) return 0;
    return n + sum_to(n - 1);
}
int main() { return sum_to(100) % 251; }
)"), 5050 % 251);
}

TEST(CcTest, SignedDivisionSemantics) {
    // C99 truncation toward zero, matching the ISA definition.
    EXPECT_EQ(exitOf("int main() { return (-7 / 2 == -3) + (-7 % 2 == -1) * 2 "
                     "+ (7 / -2 == -3) * 4 + (7 % -2 == 1) * 8; }"),
              15);
}

TEST(CcTest, Errors) {
    EXPECT_THROW(compile("int main() { return x; }"), CompileError);
    EXPECT_THROW(compile("int main() { undeclared(); }"), CompileError);
    EXPECT_THROW(compile("int f(int a) { return a; } int main() { return f(); }"),
                 CompileError);
    EXPECT_THROW(compile("int main() { 5 = 3; return 0; }"), CompileError);
    EXPECT_THROW(compile("int main() { int a; int a; return 0; }"), CompileError);
    EXPECT_THROW(compile("int g; int main() { int g; return 0; }"), CompileError);
    EXPECT_THROW(compile("int a[4]; int main() { return a; }"), CompileError);
    EXPECT_THROW(compile("int x; int main() { return x[0]; }"), CompileError);
    EXPECT_THROW(compile("int main() { int a[4]; return 0; }"), CompileError);
    EXPECT_THROW(compile("void main2() {}"), CompileError);  // no main
    EXPECT_THROW(compile("int main(int a, int b, int c, int d, int e) "
                         "{ return 0; }"), CompileError);
    EXPECT_THROW(compile("int main() { break; }"), CompileError);
    EXPECT_THROW(compile("int t[2] = {1,2,3}; int main(){return 0;}"),
                 CompileError);
    EXPECT_THROW(compile("int main() { return 1 +; }"), CompileError);
}

TEST(CcTest, ErrorsCarryLines) {
    try {
        (void)compile("int main() {\n  return\n    bogus;\n}");
        FAIL() << "expected CompileError";
    } catch (const CompileError& e) {
        EXPECT_EQ(e.line(), 3);
    }
}

}  // namespace
}  // namespace asbr::cc
