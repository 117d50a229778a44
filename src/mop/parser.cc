#include "mop/parser.h"

#include <map>
#include <vector>

#include "common/strutil.h"

namespace cimmlc {

namespace {

/** Splits "a, b, [c, d], e" on top-level commas only. */
std::vector<std::string>
splitArgs(std::string_view text)
{
    std::vector<std::string> out;
    int depth = 0;
    std::string current;
    for (char c : text) {
        if (c == '[' || c == '{' || c == '(') {
            ++depth;
        } else if (c == ']' || c == '}' || c == ')') {
            --depth;
        }
        if (c == ',' && depth == 0) {
            out.emplace_back(trim(current));
            current.clear();
        } else {
            current.push_back(c);
        }
    }
    if (!trim(current).empty())
        out.emplace_back(trim(current));
    return out;
}

StatusOr<BufAddr>
parseBufAddr(std::string_view text)
{
    BufAddr addr;
    std::string_view rest = text;
    if (startsWith(rest, "L0[")) {
        addr.space = MemSpace::kL0;
        rest.remove_prefix(3);
    } else if (startsWith(rest, "L1c")) {
        addr.space = MemSpace::kL1;
        rest.remove_prefix(3);
        const std::size_t bracket = rest.find('[');
        if (bracket == std::string_view::npos)
            return parseError("malformed buffer address: " +
                              std::string(text));
        std::int64_t core = 0;
        if (!parseInt64(rest.substr(0, bracket), &core))
            return parseError("malformed L1 core in: " + std::string(text));
        addr.core = core;
        rest.remove_prefix(bracket + 1);
    } else {
        return parseError("unknown buffer space in: " + std::string(text));
    }
    if (rest.empty() || rest.back() != ']')
        return parseError("missing ']' in: " + std::string(text));
    rest.remove_suffix(1);
    std::int64_t offset = 0;
    if (!parseInt64(rest, &offset))
        return parseError("malformed offset in: " + std::string(text));
    addr.offset = offset;
    return addr;
}

/** Parses "c3.x1" or "c3.x1.r16" into core/xb/row fields. */
Status
parseXbAddr(std::string_view text, MetaOp *op)
{
    const std::vector<std::string> parts = split(text, '.');
    if (parts.size() < 2 || parts[0].empty() || parts[0][0] != 'c' ||
        parts[1].empty() || parts[1][0] != 'x') {
        return parseError("malformed crossbar address: " +
                          std::string(text));
    }
    if (!parseInt64(std::string_view(parts[0]).substr(1), &op->core))
        return parseError("bad core index in: " + std::string(text));
    if (!parseInt64(std::string_view(parts[1]).substr(1), &op->xb))
        return parseError("bad crossbar index in: " + std::string(text));
    if (parts.size() >= 3) {
        if (parts[2].empty() || parts[2][0] != 'r')
            return parseError("bad row field in: " + std::string(text));
        if (!parseInt64(std::string_view(parts[2]).substr(1), &op->row))
            return parseError("bad row index in: " + std::string(text));
    }
    return Status::ok();
}

/** Parses "[32, 64]" into a rows/cols pair (payload shape). */
Status
parseShape(std::string_view text, std::int64_t *rows, std::int64_t *cols)
{
    std::string_view rest = trim(text);
    if (rest.size() < 2 || rest.front() != '[' || rest.back() != ']')
        return parseError("malformed shape: " + std::string(text));
    rest = rest.substr(1, rest.size() - 2);
    if (trim(rest).empty()) {
        *rows = 0;
        *cols = 0;
        return Status::ok();
    }
    const std::vector<std::string> parts = split(rest, ',');
    if (parts.size() == 1) {
        if (!parseInt64(parts[0], rows))
            return parseError("malformed shape: " + std::string(text));
        *cols = 1;
        return Status::ok();
    }
    // Higher-rank payloads (conv weights) collapse to rows x rest.
    if (!parseInt64(parts[0], rows))
        return parseError("malformed shape: " + std::string(text));
    std::int64_t rest_product = 1;
    for (std::size_t i = 1; i < parts.size(); ++i) {
        std::int64_t d = 0;
        if (!parseInt64(parts[i], &d))
            return parseError("malformed shape: " + std::string(text));
        rest_product *= d;
    }
    *cols = rest_product;
    return Status::ok();
}

struct ParsedArgs {
    std::vector<std::string> positional;
    std::map<std::string, std::string> keyed;
};

ParsedArgs
classifyArgs(const std::vector<std::string> &args)
{
    ParsedArgs out;
    for (const std::string &arg : args) {
        // A '=' at depth zero marks a keyed argument; shapes like
        // "[32, 64]" never contain '=' so a plain find suffices.
        const std::size_t eq = arg.find('=');
        if (eq == std::string::npos) {
            out.positional.push_back(std::string(trim(arg)));
        } else {
            out.keyed[std::string(trim(arg.substr(0, eq)))] =
                std::string(trim(arg.substr(eq + 1)));
        }
    }
    return out;
}

Status
keyedInt(const ParsedArgs &args, const std::string &key, std::int64_t *out)
{
    auto it = args.keyed.find(key);
    if (it == args.keyed.end())
        return Status::ok(); // optional; keep default
    if (!parseInt64(it->second, out))
        return parseError("malformed integer for '" + key + "'");
    return Status::ok();
}

Status
keyedBuf(const ParsedArgs &args, const std::string &key, BufAddr *out)
{
    auto it = args.keyed.find(key);
    if (it == args.keyed.end())
        return Status::ok();
    CIMMLC_ASSIGN_OR_RETURN(*out, parseBufAddr(it->second));
    return Status::ok();
}

Status
fillCoreParams(const ParsedArgs &args, MetaOp *op)
{
    CoreOpParams &p = op->mutableCoreParams();
    if (!args.positional.empty())
        p.is_conv = args.positional[0] == "conv";
    CIMMLC_RETURN_IF_ERROR(keyedInt(args, "cin", &p.in_channels));
    CIMMLC_RETURN_IF_ERROR(keyedInt(args, "h", &p.in_h));
    CIMMLC_RETURN_IF_ERROR(keyedInt(args, "w", &p.in_w));
    CIMMLC_RETURN_IF_ERROR(keyedInt(args, "cout", &p.out_channels));
    CIMMLC_RETURN_IF_ERROR(keyedInt(args, "k", &p.kernel));
    CIMMLC_RETURN_IF_ERROR(keyedInt(args, "s", &p.stride));
    CIMMLC_RETURN_IF_ERROR(keyedInt(args, "p", &p.padding));
    CIMMLC_RETURN_IF_ERROR(keyedInt(args, "fin", &p.in_features));
    CIMMLC_RETURN_IF_ERROR(keyedInt(args, "fout", &p.out_features));
    CIMMLC_RETURN_IF_ERROR(keyedInt(args, "wb", &p.win_begin));
    CIMMLC_RETURN_IF_ERROR(keyedInt(args, "we", &p.win_end));
    return Status::ok();
}

Status
fillDcomParams(const ParsedArgs &args, DcomParams *p)
{
    std::int64_t shift = 0;
    CIMMLC_RETURN_IF_ERROR(keyedInt(args, "shift", &shift));
    p->shift = static_cast<int>(shift);
    CIMMLC_RETURN_IF_ERROR(keyedInt(args, "k", &p->kernel));
    CIMMLC_RETURN_IF_ERROR(keyedInt(args, "s", &p->stride));
    CIMMLC_RETURN_IF_ERROR(keyedInt(args, "p", &p->padding));
    CIMMLC_RETURN_IF_ERROR(keyedInt(args, "c", &p->channels));
    CIMMLC_RETURN_IF_ERROR(keyedInt(args, "h", &p->in_h));
    CIMMLC_RETURN_IF_ERROR(keyedInt(args, "w", &p->in_w));
    return Status::ok();
}

} // namespace

StatusOr<MetaOp>
parseOpLine(const std::string &line)
{
    const std::string_view text = trim(line);
    const std::size_t open = text.find('(');
    if (open == std::string_view::npos || text.back() != ')')
        return parseError("op line must be name(args): " +
                          std::string(text));
    const std::string name(trim(text.substr(0, open)));
    const ParsedArgs args = classifyArgs(
        splitArgs(text.substr(open + 1, text.size() - open - 2)));

    MetaOp op;
    auto xbaddr = [&](const char *key) -> Status {
        auto it = args.keyed.find(key);
        if (it == args.keyed.end())
            return parseError(std::string("missing ") + key + " in " +
                              name);
        return parseXbAddr(it->second, &op);
    };

    if (name == "cim.readcore") {
        op.kind = MetaOpKind::kReadCore;
        CIMMLC_RETURN_IF_ERROR(fillCoreParams(args, &op));
        CIMMLC_RETURN_IF_ERROR(keyedInt(args, "coreaddr", &op.core));
        CIMMLC_RETURN_IF_ERROR(keyedBuf(args, "src", &op.src));
        CIMMLC_RETURN_IF_ERROR(keyedBuf(args, "dst", &op.dst));
    } else if (name == "cim.writecore") {
        op.kind = MetaOpKind::kWriteCore;
        CIMMLC_RETURN_IF_ERROR(fillCoreParams(args, &op));
        CIMMLC_RETURN_IF_ERROR(keyedInt(args, "coreaddr", &op.core));
        if (args.keyed.count("weights")) {
            CIMMLC_RETURN_IF_ERROR(
                parseShape(args.keyed.at("weights"), &op.rows, &op.cols));
        }
    } else if (name == "cim.readxb") {
        op.kind = MetaOpKind::kReadXb;
        CIMMLC_RETURN_IF_ERROR(xbaddr("xbaddr"));
        CIMMLC_RETURN_IF_ERROR(keyedInt(args, "len", &op.len));
        CIMMLC_RETURN_IF_ERROR(keyedInt(args, "rows", &op.rows));
        CIMMLC_RETURN_IF_ERROR(keyedInt(args, "cols", &op.cols));
        CIMMLC_RETURN_IF_ERROR(keyedBuf(args, "src", &op.src));
        CIMMLC_RETURN_IF_ERROR(keyedBuf(args, "dst", &op.dst));
    } else if (name == "cim.writexb") {
        op.kind = MetaOpKind::kWriteXb;
        CIMMLC_RETURN_IF_ERROR(xbaddr("xbaddr"));
        if (args.keyed.count("mat")) {
            CIMMLC_RETURN_IF_ERROR(
                parseShape(args.keyed.at("mat"), &op.rows, &op.cols));
        }
    } else if (name == "cim.readrow") {
        op.kind = MetaOpKind::kReadRow;
        CIMMLC_RETURN_IF_ERROR(xbaddr("rowaddr"));
        CIMMLC_RETURN_IF_ERROR(keyedInt(args, "len", &op.len));
        CIMMLC_RETURN_IF_ERROR(keyedInt(args, "cols", &op.cols));
        CIMMLC_RETURN_IF_ERROR(keyedBuf(args, "src", &op.src));
        CIMMLC_RETURN_IF_ERROR(keyedBuf(args, "dst", &op.dst));
    } else if (name == "cim.writerow") {
        op.kind = MetaOpKind::kWriteRow;
        CIMMLC_RETURN_IF_ERROR(xbaddr("rowaddr"));
        CIMMLC_RETURN_IF_ERROR(keyedInt(args, "len", &op.len));
        if (args.keyed.count("value")) {
            CIMMLC_RETURN_IF_ERROR(
                parseShape(args.keyed.at("value"), &op.rows, &op.cols));
        }
    } else if (name == "mov") {
        op.kind = MetaOpKind::kMov;
        CIMMLC_RETURN_IF_ERROR(keyedBuf(args, "src", &op.src));
        CIMMLC_RETURN_IF_ERROR(keyedBuf(args, "dst", &op.dst));
        CIMMLC_RETURN_IF_ERROR(keyedInt(args, "len", &op.len));
        CIMMLC_RETURN_IF_ERROR(keyedInt(args, "count", &op.count));
        CIMMLC_RETURN_IF_ERROR(keyedInt(args, "sstride", &op.src_stride));
        CIMMLC_RETURN_IF_ERROR(keyedInt(args, "dstride", &op.dst_stride));
        std::int64_t host = 0;
        CIMMLC_RETURN_IF_ERROR(keyedInt(args, "host", &host));
        op.host = host != 0;
    } else {
        // Anything else is a DCOM function.
        op.kind = MetaOpKind::kDcom;
        op.func = name;
        BufAddr src2;
        DcomParams params;
        CIMMLC_RETURN_IF_ERROR(keyedBuf(args, "src", &op.src));
        CIMMLC_RETURN_IF_ERROR(keyedBuf(args, "src1", &op.src));
        CIMMLC_RETURN_IF_ERROR(keyedBuf(args, "src2", &src2));
        CIMMLC_RETURN_IF_ERROR(keyedBuf(args, "dst", &op.dst));
        CIMMLC_RETURN_IF_ERROR(keyedInt(args, "len", &op.len));
        CIMMLC_RETURN_IF_ERROR(fillDcomParams(args, &params));
        // Allocate the out-of-line record only for non-default values.
        if (src2 != BufAddr{})
            op.mutableSrc2() = src2;
        if (params != DcomParams{})
            op.mutableDcomParams() = params;
        std::int64_t host = 0;
        CIMMLC_RETURN_IF_ERROR(keyedInt(args, "host", &host));
        op.host = host != 0;
    }
    return op;
}

namespace {

struct LineCursor {
    std::vector<std::string> lines;
    std::size_t pos = 0;

    bool done() const { return pos >= lines.size(); }
    const std::string &peek() const { return lines[pos]; }
    void advance() { ++pos; }
};

Status parseStmt(LineCursor *cursor, StmtBuilder *out);

StatusOr<StmtBuilder>
parseBlockBody(LineCursor *cursor)
{
    StmtBuilder body;
    while (!cursor->done()) {
        const std::string line(trim(cursor->peek()));
        if (line == "}") {
            cursor->advance();
            return body;
        }
        CIMMLC_RETURN_IF_ERROR(parseStmt(cursor, &body));
    }
    return parseError("unterminated block (missing '}')");
}

/** Parses the statement at @p cursor and appends it to @p out. */
Status
parseStmt(LineCursor *cursor, StmtBuilder *out)
{
    const std::string line(trim(cursor->peek()));
    cursor->advance();
    if (line == "parallel {") {
        CIMMLC_ASSIGN_OR_RETURN(StmtBuilder body, parseBlockBody(cursor));
        out->appendParallel(std::move(body));
        return Status::ok();
    }
    if (startsWith(line, "repeat ")) {
        std::string_view rest = std::string_view(line).substr(7);
        const std::size_t brace = rest.find('{');
        if (brace == std::string_view::npos)
            return parseError("repeat without '{': " + line);
        std::int64_t count = 0;
        if (!parseInt64(rest.substr(0, brace), &count))
            return parseError("malformed repeat count: " + line);
        CIMMLC_ASSIGN_OR_RETURN(StmtBuilder body, parseBlockBody(cursor));
        out->appendRepeat(count, std::move(body));
        return Status::ok();
    }
    CIMMLC_ASSIGN_OR_RETURN(MetaOp op, parseOpLine(line));
    out->append(std::move(op));
    return Status::ok();
}

} // namespace

StatusOr<MopProgram>
parseProgram(const std::string &text)
{
    LineCursor cursor;
    for (const std::string &raw : split(text, '\n')) {
        const std::string line(trim(raw));
        if (line.empty() || startsWith(line, "//") ||
            startsWith(line, "#")) {
            continue;
        }
        cursor.lines.push_back(line);
    }

    MopProgram program("parsed", "unknown");
    StmtBuilder *section = &program.computeBuilder();
    while (!cursor.done()) {
        const std::string &line = cursor.peek();
        if (line == "init:") {
            section = &program.initBuilder();
            cursor.advance();
            continue;
        }
        if (line == "compute:") {
            section = &program.computeBuilder();
            cursor.advance();
            continue;
        }
        CIMMLC_RETURN_IF_ERROR(parseStmt(&cursor, section));
    }
    return program;
}

} // namespace cimmlc
