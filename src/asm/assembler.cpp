#include "asm/assembler.hpp"

#include <algorithm>
#include <cctype>
#include <optional>
#include <sstream>
#include <vector>

#include "isa/encoding.hpp"

namespace asbr {

namespace {

// ---------------------------------------------------------------------------
// Lexical helpers
// ---------------------------------------------------------------------------

std::string trim(const std::string& s) {
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
    return s.substr(b, e - b);
}

std::string stripComment(const std::string& s) {
    const std::size_t pos = s.find_first_of("#;");
    return pos == std::string::npos ? s : s.substr(0, pos);
}

bool isIdentStart(char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '.';
}

bool isIdentChar(char c) {
    return isIdentStart(c) || std::isdigit(static_cast<unsigned char>(c)) ||
           c == '$';
}

std::vector<std::string> splitOperands(const std::string& s) {
    std::vector<std::string> out;
    std::string cur;
    for (char c : s) {
        if (c == ',') {
            out.push_back(trim(cur));
            cur.clear();
        } else {
            cur += c;
        }
    }
    cur = trim(cur);
    if (!cur.empty()) out.push_back(cur);
    return out;
}

std::optional<std::int64_t> parseIntLit(const std::string& text) {
    std::string s = trim(text);
    if (s.empty()) return std::nullopt;
    bool neg = false;
    std::size_t i = 0;
    if (s[0] == '-' || s[0] == '+') {
        neg = s[0] == '-';
        i = 1;
    }
    if (i >= s.size()) return std::nullopt;
    int base = 10;
    if (s.size() > i + 1 && s[i] == '0' && (s[i + 1] == 'x' || s[i + 1] == 'X')) {
        base = 16;
        i += 2;
    }
    if (i >= s.size()) return std::nullopt;
    std::int64_t value = 0;
    for (; i < s.size(); ++i) {
        const char c = s[i];
        int digit;
        if (c >= '0' && c <= '9') digit = c - '0';
        else if (base == 16 && c >= 'a' && c <= 'f') digit = 10 + c - 'a';
        else if (base == 16 && c >= 'A' && c <= 'F') digit = 10 + c - 'A';
        else return std::nullopt;
        value = value * base + digit;
        if (value > 0x1'0000'0000LL) return std::nullopt;  // overflow guard
    }
    return neg ? -value : value;
}

// ---------------------------------------------------------------------------
// Statement representation (built in pass 1, resolved in pass 2)
// ---------------------------------------------------------------------------

enum class StmtKind { kInstr, kData };

struct Statement {
    StmtKind kind = StmtKind::kInstr;
    int line = 0;
    std::string mnemonic;
    std::vector<std::string> operands;
    // kInstr:
    std::uint32_t address = 0;  // first word address
    int words = 1;              // expansion size
    // kData (one element per directive value):
    int elemSize = 0;           // 1, 2 or 4 bytes; 0 for .space
    std::uint32_t dataOffset = 0;
    std::uint32_t spaceBytes = 0;
};

struct MemOperand {
    std::int32_t offset = 0;
    std::uint8_t base = 0;
};

class Assembler {
public:
    Assembler(const std::string& source, const AsmOptions& options)
        : options_(options) {
        program_.textBase = options.textBase;
        program_.dataBase = options.dataBase;
        std::istringstream in(source);
        std::string raw;
        int line = 0;
        while (std::getline(in, raw)) {
            ++line;
            parseLine(line, raw);
        }
    }

    Program finish() {
        program_.data.assign(dataSize_, 0);
        for (const Statement& st : statements_) {
            if (st.kind == StmtKind::kInstr) {
                emitInstruction(st);
            } else {
                emitData(st);
            }
        }
        const auto it = program_.symbols.find(options_.entrySymbol);
        program_.entry = it != program_.symbols.end() ? it->second
                                                      : program_.textBase;
        ASBR_ENSURE(program_.inText(program_.entry) || program_.code.empty(),
                    "entry symbol must be a text address");
        return std::move(program_);
    }

private:
    // ------------------------------------------------------ pass 1 ----------
    void parseLine(int line, const std::string& raw) {
        std::string s = trim(stripComment(raw));
        // Peel off any leading labels.
        while (true) {
            const std::size_t colon = s.find(':');
            if (colon == std::string::npos) break;
            const std::string head = trim(s.substr(0, colon));
            if (head.empty() || !isIdentStart(head[0]) ||
                !std::all_of(head.begin(), head.end(), isIdentChar)) {
                break;  // ':' belongs to something else (not valid here anyway)
            }
            defineLabel(line, head);
            s = trim(s.substr(colon + 1));
        }
        if (s.empty()) return;

        std::size_t sp = 0;
        while (sp < s.size() && !std::isspace(static_cast<unsigned char>(s[sp])))
            ++sp;
        const std::string mnemonic = s.substr(0, sp);
        const std::string rest = trim(s.substr(sp));

        if (mnemonic[0] == '.') {
            parseDirective(line, mnemonic, rest);
            return;
        }
        if (!inText_) throw AsmError(line, "instructions must appear in .text");
        Statement st;
        st.kind = StmtKind::kInstr;
        st.line = line;
        st.mnemonic = mnemonic;
        st.operands = splitOperands(rest);
        st.address = program_.textBase + textWords_ * kInstrBytes;
        st.words = expansionSize(st);
        textWords_ += static_cast<std::uint32_t>(st.words);
        statements_.push_back(std::move(st));
    }

    void defineLabel(int line, const std::string& name) {
        if (program_.symbols.count(name) != 0)
            throw AsmError(line, "duplicate label '" + name + "'");
        const std::uint32_t addr =
            inText_ ? program_.textBase + textWords_ * kInstrBytes
                    : program_.dataBase + dataSize_;
        program_.symbols.emplace(name, addr);
    }

    void parseDirective(int line, const std::string& name, const std::string& rest) {
        if (name == ".text") { inText_ = true; return; }
        if (name == ".data") { inText_ = false; return; }
        if (name == ".globl" || name == ".global") return;  // informational
        if (name == ".align") {
            const auto n = parseIntLit(rest);
            if (!n || *n < 0 || *n > 12) throw AsmError(line, ".align 0..12");
            if (inText_) throw AsmError(line, ".align only supported in .data");
            const std::uint32_t a = 1u << *n;
            dataSize_ = (dataSize_ + a - 1) & ~(a - 1);
            return;
        }
        if (name == ".loopbound") {
            const auto n = parseIntLit(rest);
            if (!n || *n < 1 || *n > INT32_MAX)
                throw AsmError(line, ".loopbound needs a positive iteration count");
            if (!inText_) throw AsmError(line, ".loopbound only valid in .text");
            const std::uint32_t addr = program_.textBase + textWords_ * kInstrBytes;
            if (!program_.loopBounds.emplace(addr, static_cast<std::uint32_t>(*n)).second)
                throw AsmError(line, "duplicate .loopbound for the same loop head");
            return;
        }
        if (name == ".space") {
            const auto n = parseIntLit(rest);
            if (!n || *n < 0) throw AsmError(line, ".space needs a size");
            if (inText_) throw AsmError(line, ".space only supported in .data");
            Statement st;
            st.kind = StmtKind::kData;
            st.line = line;
            st.dataOffset = dataSize_;
            st.spaceBytes = static_cast<std::uint32_t>(*n);
            dataSize_ += st.spaceBytes;
            statements_.push_back(std::move(st));
            return;
        }
        int elemSize = 0;
        if (name == ".word") elemSize = 4;
        else if (name == ".half") elemSize = 2;
        else if (name == ".byte") elemSize = 1;
        else throw AsmError(line, "unknown directive '" + name + "'");
        if (inText_) throw AsmError(line, "data directives only supported in .data");
        // No implicit alignment: a label on the same line has already been
        // placed, so silently padding here would make it point at padding.
        if (elemSize > 1 &&
            dataSize_ % static_cast<std::uint32_t>(elemSize) != 0) {
            throw AsmError(line, name + " at unaligned offset; add .align first");
        }
        Statement st;
        st.kind = StmtKind::kData;
        st.line = line;
        st.elemSize = elemSize;
        st.operands = splitOperands(rest);
        st.dataOffset = dataSize_;
        if (st.operands.empty()) throw AsmError(line, name + " needs values");
        dataSize_ += static_cast<std::uint32_t>(st.operands.size()) *
                     static_cast<std::uint32_t>(elemSize);
        statements_.push_back(std::move(st));
    }

    int expansionSize(const Statement& st) {
        const std::string& m = st.mnemonic;
        if (m == "la") return 2;
        if (m == "li") {
            if (st.operands.size() != 2) throw AsmError(st.line, "li rd, imm");
            const auto v = parseIntLit(st.operands[1]);
            if (!v) throw AsmError(st.line, "li needs a numeric immediate");
            return liSize(*v);
        }
        return 1;
    }

    static int liSize(std::int64_t v) {
        if (fitsSimm16(v) || fitsUimm16(v)) return 1;
        if ((v & 0xFFFF) == 0) return 1;  // lui alone
        return 2;
    }

    // ------------------------------------------------------ pass 2 ----------
    [[nodiscard]] std::uint32_t resolveSymbolExpr(int line, const std::string& text) const {
        // "sym", "sym+N", "sym-N" or a plain integer.
        std::string s = trim(text);
        if (const auto lit = parseIntLit(s)) return static_cast<std::uint32_t>(*lit);
        std::size_t pos = s.find_first_of("+-", 1);
        std::int64_t off = 0;
        std::string base = s;
        if (pos != std::string::npos) {
            base = trim(s.substr(0, pos));
            const auto v = parseIntLit(s.substr(pos));
            if (!v) throw AsmError(line, "bad offset in '" + text + "'");
            off = *v;
        }
        const auto it = program_.symbols.find(base);
        if (it == program_.symbols.end())
            throw AsmError(line, "undefined symbol '" + base + "'");
        return static_cast<std::uint32_t>(it->second + off);
    }

    std::uint8_t parseReg(int line, const std::string& text) const {
        const auto r = regFromName(trim(text));
        if (!r) throw AsmError(line, "bad register '" + text + "'");
        return *r;
    }

    std::int32_t parseImm(int line, const std::string& text) const {
        const auto v = parseIntLit(text);
        if (!v) throw AsmError(line, "bad immediate '" + text + "'");
        return static_cast<std::int32_t>(*v);
    }

    MemOperand parseMem(int line, const std::string& text) const {
        // "imm(reg)", "(reg)" or "sym" are allowed; symbols resolve to
        // absolute addresses relative to r0.
        const std::string s = trim(text);
        const std::size_t open = s.find('(');
        if (open == std::string::npos) {
            const std::uint32_t addr = resolveSymbolExpr(line, s);
            const auto abs = static_cast<std::int64_t>(addr);
            if (fitsSimm16(abs)) return {static_cast<std::int32_t>(addr), reg::zero};
            // gp-relative small-data addressing: both simulators initialize
            // gp = dataBase + 0x8000, so data within 64KB of the data base is
            // reachable without an address-forming instruction.
            const std::int64_t gpOff =
                abs - (static_cast<std::int64_t>(program_.dataBase) + 0x8000);
            if (fitsSimm16(gpOff))
                return {static_cast<std::int32_t>(gpOff), reg::gp};
            throw AsmError(line, "symbol operand out of gp range; use la");
        }
        const std::size_t close = s.find(')', open);
        if (close == std::string::npos) throw AsmError(line, "missing ')'");
        MemOperand m;
        const std::string off = trim(s.substr(0, open));
        m.offset = off.empty() ? 0 : parseImm(line, off);
        m.base = parseReg(line, s.substr(open + 1, close - open - 1));
        return m;
    }

    void push(const Statement& st, Instruction ins) {
        try {
            (void)encode(ins);  // field validation
        } catch (const EnsureError& e) {
            throw AsmError(st.line, e.what());
        }
        program_.code.push_back(ins);
        program_.lineOf.push_back(st.line);
    }

    void needOperands(const Statement& st, std::size_t n) const {
        if (st.operands.size() != n)
            throw AsmError(st.line, st.mnemonic + " expects " + std::to_string(n) +
                                        " operand(s)");
    }

    void emitInstruction(const Statement& st) {
        ASBR_ENSURE(program_.code.size() * kInstrBytes + program_.textBase ==
                        st.address,
                    "pass 1/pass 2 address drift");
        const std::string& m = st.mnemonic;

        // Pseudo-instructions first.
        if (m == "li") { emitLi(st); return; }
        if (m == "la") { emitLa(st); return; }
        if (m == "move") {
            needOperands(st, 2);
            push(st, {Op::kAddu, parseReg(st.line, st.operands[0]),
                      parseReg(st.line, st.operands[1]), reg::zero, 0});
            return;
        }
        if (m == "neg") {
            needOperands(st, 2);
            push(st, {Op::kSubu, parseReg(st.line, st.operands[0]), reg::zero,
                      parseReg(st.line, st.operands[1]), 0});
            return;
        }
        if (m == "not") {
            needOperands(st, 2);
            push(st, {Op::kNor, parseReg(st.line, st.operands[0]),
                      parseReg(st.line, st.operands[1]), reg::zero, 0});
            return;
        }
        if (m == "b") {
            needOperands(st, 1);
            const std::uint32_t target = resolveSymbolExpr(st.line, st.operands[0]);
            push(st, {Op::kJ, 0, 0, 0,
                      static_cast<std::int32_t>(target / kInstrBytes)});
            return;
        }

        const auto op = opFromName(m);
        if (!op) throw AsmError(st.line, "unknown mnemonic '" + m + "'");
        Instruction ins;
        ins.op = *op;

        if (*op == Op::kNop || *op == Op::kSys) {
            needOperands(st, 0);
            push(st, ins);
            return;
        }
        if (isMulDiv(*op) || (*op >= Op::kAddu && *op <= Op::kSrav)) {
            needOperands(st, 3);
            ins.rd = parseReg(st.line, st.operands[0]);
            ins.rs = parseReg(st.line, st.operands[1]);
            ins.rt = parseReg(st.line, st.operands[2]);
            push(st, ins);
            return;
        }
        if (*op == Op::kLui) {
            needOperands(st, 2);
            ins.rd = parseReg(st.line, st.operands[0]);
            ins.imm = parseImm(st.line, st.operands[1]);
            push(st, ins);
            return;
        }
        if (*op >= Op::kAddiu && *op <= Op::kSra) {
            needOperands(st, 3);
            ins.rd = parseReg(st.line, st.operands[0]);
            ins.rs = parseReg(st.line, st.operands[1]);
            ins.imm = parseImm(st.line, st.operands[2]);
            push(st, ins);
            return;
        }
        if (isLoad(*op)) {
            needOperands(st, 2);
            ins.rd = parseReg(st.line, st.operands[0]);
            const MemOperand mem = parseMem(st.line, st.operands[1]);
            ins.rs = mem.base;
            ins.imm = mem.offset;
            push(st, ins);
            return;
        }
        if (isStore(*op)) {
            needOperands(st, 2);
            ins.rt = parseReg(st.line, st.operands[0]);
            const MemOperand mem = parseMem(st.line, st.operands[1]);
            ins.rs = mem.base;
            ins.imm = mem.offset;
            push(st, ins);
            return;
        }
        if (isCondBranch(*op)) {
            needOperands(st, 2);
            ins.rs = parseReg(st.line, st.operands[0]);
            const std::string& target = st.operands[1];
            if (const auto lit = parseIntLit(target)) {
                ins.imm = static_cast<std::int32_t>(*lit);
            } else {
                const std::uint32_t addr = resolveSymbolExpr(st.line, target);
                const std::int64_t delta =
                    (static_cast<std::int64_t>(addr) -
                     (static_cast<std::int64_t>(st.address) + kInstrBytes)) /
                    kInstrBytes;
                if (!fitsSimm16(delta))
                    throw AsmError(st.line, "branch target out of range");
                ins.imm = static_cast<std::int32_t>(delta);
            }
            push(st, ins);
            return;
        }
        if (*op == Op::kJ || *op == Op::kJal) {
            needOperands(st, 1);
            const std::uint32_t addr = resolveSymbolExpr(st.line, st.operands[0]);
            if ((addr & 3u) != 0) throw AsmError(st.line, "unaligned jump target");
            ins.imm = static_cast<std::int32_t>(addr / kInstrBytes);
            push(st, ins);
            return;
        }
        if (*op == Op::kJr) {
            needOperands(st, 1);
            ins.rs = parseReg(st.line, st.operands[0]);
            push(st, ins);
            return;
        }
        if (*op == Op::kJalr) {
            if (st.operands.size() == 1) {
                ins.rd = reg::ra;
                ins.rs = parseReg(st.line, st.operands[0]);
            } else {
                needOperands(st, 2);
                ins.rd = parseReg(st.line, st.operands[0]);
                ins.rs = parseReg(st.line, st.operands[1]);
            }
            push(st, ins);
            return;
        }
        throw AsmError(st.line, "unhandled mnemonic '" + m + "'");
    }

    void emitLi(const Statement& st) {
        needOperands(st, 2);
        const std::uint8_t rd = parseReg(st.line, st.operands[0]);
        const auto v = parseIntLit(st.operands[1]);
        if (!v) throw AsmError(st.line, "li needs a numeric immediate");
        const std::int64_t value = *v;
        if (fitsSimm16(value)) {
            push(st, {Op::kAddiu, rd, reg::zero, 0, static_cast<std::int32_t>(value)});
        } else if (fitsUimm16(value)) {
            push(st, {Op::kOri, rd, reg::zero, 0, static_cast<std::int32_t>(value)});
        } else {
            const auto u = static_cast<std::uint32_t>(value);
            push(st, {Op::kLui, rd, 0, 0, static_cast<std::int32_t>(u >> 16)});
            if ((u & 0xFFFFu) != 0)
                push(st, {Op::kOri, rd, rd, 0, static_cast<std::int32_t>(u & 0xFFFFu)});
        }
    }

    void emitLa(const Statement& st) {
        needOperands(st, 2);
        const std::uint8_t rd = parseReg(st.line, st.operands[0]);
        const std::uint32_t addr = resolveSymbolExpr(st.line, st.operands[1]);
        push(st, {Op::kLui, rd, 0, 0, static_cast<std::int32_t>(addr >> 16)});
        push(st, {Op::kOri, rd, rd, 0, static_cast<std::int32_t>(addr & 0xFFFFu)});
    }

    void emitData(const Statement& st) {
        if (st.elemSize == 0) return;  // .space — already zero-filled
        std::uint32_t offset = st.dataOffset;
        for (const std::string& text : st.operands) {
            std::int64_t value;
            if (const auto lit = parseIntLit(text)) {
                value = *lit;
            } else {
                value = resolveSymbolExpr(st.line, text);
            }
            for (int b = 0; b < st.elemSize; ++b) {
                program_.data[offset + static_cast<std::uint32_t>(b)] =
                    static_cast<std::uint8_t>((value >> (8 * b)) & 0xFF);
            }
            offset += static_cast<std::uint32_t>(st.elemSize);
        }
    }

    AsmOptions options_;
    Program program_;
    std::vector<Statement> statements_;
    bool inText_ = true;
    std::uint32_t textWords_ = 0;
    std::uint32_t dataSize_ = 0;
};

}  // namespace

Program assemble(const std::string& source, const AsmOptions& options) {
    Assembler assembler(source, options);
    return assembler.finish();
}

}  // namespace asbr
