#include "bench_io/parsers.h"

#include "util/names.h"
#include "util/status.h"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <istream>
#include <string>
#include <utility>
#include <vector>

namespace ctsim::bench_io {

namespace {

bool is_number(const std::string& tok) {
    if (tok.empty()) return false;
    char* end = nullptr;
    std::strtod(tok.c_str(), &end);
    return end == tok.c_str() + tok.size();
}

/// A token plus where it started (1-based line and column).
struct Tok {
    std::string text;
    int line{0};
    int col{0};
};

/// Split one line into tokens, remembering each token's start column.
std::vector<Tok> split_line(const std::string& line, int line_no) {
    std::vector<Tok> toks;
    std::size_t i = 0;
    while (i < line.size()) {
        while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) ++i;
        if (i >= line.size()) break;
        const std::size_t start = i;
        while (i < line.size() && !std::isspace(static_cast<unsigned char>(line[i]))) ++i;
        toks.push_back({line.substr(start, i - start), line_no,
                        static_cast<int>(start) + 1});
    }
    return toks;
}

[[noreturn]] void fail(const std::string& filename, int line, int col,
                       const std::string& what) {
    util::throw_status(util::Status::invalid_input(what).at(filename, line, col));
}

/// The value of numeric token `t`, or a typed error at the token when it
/// is not a number or its value is not a finite, in-range double
/// (`1e400`, `inf`, `nan`).
double number(const std::string& filename, const Tok& t, const std::string& what) {
    if (!is_number(t.text)) fail(filename, t.line, t.col, what + " is not a number");
    errno = 0;
    const double v = std::strtod(t.text.c_str(), nullptr);
    if (errno == ERANGE || !std::isfinite(v))
        fail(filename, t.line, t.col, what + " '" + t.text + "' is out of range");
    return v;
}

/// Streaming tokenizer for the token-shaped ISPD format: hands out
/// whitespace-separated tokens with the line/column they started at.
class Tokenizer {
  public:
    explicit Tokenizer(std::istream& is) : is_(is) {}

    bool next(Tok& out) {
        int c;
        while ((c = is_.get()) != EOF && std::isspace(c)) advance(c);
        if (c == EOF) return false;
        out.line = line_;
        out.col = col_;
        out.text.clear();
        do {
            out.text.push_back(static_cast<char>(c));
            advance(c);
        } while ((c = is_.get()) != EOF && !std::isspace(c));
        if (c != EOF) advance(c);
        last_ = {out.line, out.col};
        return true;
    }

    /// Location of the most recent token (for truncation errors).
    std::pair<int, int> last() const { return last_; }
    std::pair<int, int> here() const { return {line_, col_}; }

  private:
    void advance(int c) {
        if (c == '\n') {
            ++line_;
            col_ = 1;
        } else {
            ++col_;
        }
    }

    std::istream& is_;
    int line_{1};
    int col_{1};
    std::pair<int, int> last_{1, 1};
};

}  // namespace

std::vector<cts::SinkSpec> parse_gsrc_bst(std::istream& is, const std::string& filename) {
    std::vector<cts::SinkSpec> sinks;
    std::string line;
    int line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        const auto hash = line.find('#');
        if (hash != std::string::npos) line = line.substr(0, hash);
        const std::vector<Tok> toks = split_line(line, line_no);
        if (toks.empty()) continue;
        // Header lines ("NumSinks : 267" etc.) contain a ':' token or a
        // non-numeric keyword pair; skip them.
        bool header = false;
        for (const Tok& t : toks)
            if (t.text == ":") header = true;
        if (header) continue;

        cts::SinkSpec s;
        if (toks.size() == 3 && is_number(toks[0].text)) {
            s.name = util::indexed_name("s", static_cast<long long>(sinks.size()));
        } else if (toks.size() == 4 && is_number(toks[1].text) && is_number(toks[2].text) &&
                   is_number(toks[3].text)) {
            s.name = toks[0].text;
        } else {
            fail(filename, line_no, toks[0].col, "expected 'x y cap' or 'name x y cap'");
        }
        // Either shape ends in 'x y cap'.
        const Tok& x = toks[toks.size() - 3];
        const Tok& y = toks[toks.size() - 2];
        const Tok& cap = toks[toks.size() - 1];
        s.pos = {number(filename, x, "GSRC: sink x coordinate"),
                 number(filename, y, "GSRC: sink y coordinate")};
        s.cap_ff = number(filename, cap, "GSRC: sink capacitance");
        if (s.cap_ff <= 0.0)
            fail(filename, line_no, cap.col, "sink capacitance must be positive");
        sinks.push_back(std::move(s));
    }
    if (sinks.empty()) fail(filename, line_no, 0, "GSRC BST file contains no sinks");
    return sinks;
}

std::vector<cts::SinkSpec> parse_ispd09(std::istream& is, const std::string& filename) {
    std::vector<cts::SinkSpec> sinks;
    Tokenizer tz(is);
    Tok tok;
    while (tz.next(tok)) {
        if (tok.text == "num") {
            Tok kind;
            if (!tz.next(kind)) break;
            if (kind.text == "sink") {
                Tok count;
                if (!tz.next(count)) {
                    const auto [l, c] = tz.last();
                    fail(filename, l, c, "ispd09: bad 'num sink' count");
                }
                // Range-check before the cast: an int cast of a count
                // beyond INT_MAX is undefined.
                const double n = number(filename, count, "ispd09: 'num sink' count");
                if (n <= 0.0 || n > INT_MAX || n != std::floor(n))
                    fail(filename, count.line, count.col, "ispd09: bad 'num sink' count");
                const int expected = static_cast<int>(n);
                for (int i = 0; i < expected; ++i) {
                    Tok id, xs, ys, caps;
                    if (!tz.next(id) || !tz.next(xs) || !tz.next(ys) || !tz.next(caps)) {
                        const auto [l, c] = tz.last();
                        fail(filename, l, c, "ispd09: truncated sink section");
                    }
                    // Braced initializers evaluate left to right, so the
                    // first bad token is the one reported.
                    sinks.push_back({{number(filename, xs, "ispd09: sink x coordinate"),
                                      number(filename, ys, "ispd09: sink y coordinate")},
                                     number(filename, caps, "ispd09: sink capacitance"),
                                     id.text});
                }
            } else {
                Tok count;
                tz.next(count);  // skip other sections' counts; their lines
                                 // are consumed lazily by the token loop
            }
        }
        // all other tokens are skipped
    }
    if (sinks.empty()) fail(filename, 0, 0, "ispd09: no sink section found");
    return sinks;
}

}  // namespace ctsim::bench_io
