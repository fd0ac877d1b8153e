#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>

#include "bench_io/parsers.h"
#include "bench_io/synthetic.h"
#include "util/status.h"

namespace ctsim::bench_io {
namespace {

TEST(GsrcParser, ParsesNameXYCapLines) {
    std::istringstream in(R"(# GSRC BST sink list
NumSinks : 3
s0 100.0 200.0 12.5
s1 300 400 8
s2 -50 0 30.0
)");
    const auto sinks = parse_gsrc_bst(in);
    ASSERT_EQ(sinks.size(), 3u);
    EXPECT_EQ(sinks[0].name, "s0");
    EXPECT_DOUBLE_EQ(sinks[0].pos.x, 100.0);
    EXPECT_DOUBLE_EQ(sinks[2].cap_ff, 30.0);
}

TEST(GsrcParser, ParsesBareTriples) {
    std::istringstream in("10 20 5\n30 40 6\n");
    const auto sinks = parse_gsrc_bst(in);
    ASSERT_EQ(sinks.size(), 2u);
    EXPECT_EQ(sinks[1].name, "s1");
}

TEST(GsrcParser, RejectsMalformedLine) {
    std::istringstream in("s0 10 20\n");
    EXPECT_THROW(parse_gsrc_bst(in), std::runtime_error);
}

TEST(GsrcParser, RejectsNonPositiveCap) {
    std::istringstream in("s0 10 20 0\n");
    EXPECT_THROW(parse_gsrc_bst(in), std::runtime_error);
}

TEST(GsrcParser, RejectsEmptyFile) {
    std::istringstream in("# nothing here\n");
    EXPECT_THROW(parse_gsrc_bst(in), std::runtime_error);
}

TEST(IspdParser, ParsesSinkSection) {
    std::istringstream in(R"(num sink 2
1 1000 2000 35
2 3000 4000 20
num wire 1
0.1 0.2
)");
    const auto sinks = parse_ispd09(in);
    ASSERT_EQ(sinks.size(), 2u);
    EXPECT_EQ(sinks[0].name, "1");
    EXPECT_DOUBLE_EQ(sinks[1].pos.y, 4000.0);
}

TEST(IspdParser, RejectsTruncatedSection) {
    std::istringstream in("num sink 3\n1 0 0 5\n");
    EXPECT_THROW(parse_ispd09(in), std::runtime_error);
}

// ---- structured diagnostics (file:line:column) ---------------------------

util::Status catch_status(const std::function<void()>& fn) {
    try {
        fn();
    } catch (const util::Error& e) {
        return e.status();
    }
    ADD_FAILURE() << "expected util::Error";
    return {};
}

TEST(GsrcParser, MalformedLineReportsFileLineColumn) {
    std::istringstream in("10 20 5\nnot a sink line at all\n");
    const util::Status s =
        catch_status([&] { (void)parse_gsrc_bst(in, "fixtures/r9.bst"); });
    EXPECT_EQ(s.code(), util::StatusCode::invalid_input);
    EXPECT_EQ(s.file(), "fixtures/r9.bst");
    EXPECT_EQ(s.line(), 2);
    EXPECT_EQ(s.column(), 1);
    // The rendered diagnostic carries the editor-clickable location.
    EXPECT_NE(s.to_string().find("fixtures/r9.bst:2:1"), std::string::npos)
        << s.to_string();
}

TEST(GsrcParser, BadCapacitancePointsAtTheCapToken) {
    std::istringstream in("s0 10 20 -4.5\n");
    const util::Status s = catch_status([&] { (void)parse_gsrc_bst(in, "r1.bst"); });
    EXPECT_EQ(s.code(), util::StatusCode::invalid_input);
    EXPECT_EQ(s.line(), 1);
    EXPECT_EQ(s.column(), 10);  // column of "-4.5", not of the line
}

TEST(GsrcParser, LeadingSpacesShiftTheReportedColumn) {
    std::istringstream in("   bad-token 1 2\n");
    const util::Status s = catch_status([&] { (void)parse_gsrc_bst(in); });
    EXPECT_EQ(s.line(), 1);
    EXPECT_EQ(s.column(), 4);
    // Without a filename the location renders against "<input>".
    EXPECT_NE(s.to_string().find("<input>:1:4"), std::string::npos) << s.to_string();
}

TEST(GsrcParser, EmptyFileReportsWholeFileLocation) {
    std::istringstream in("# comments only\n\n");
    const util::Status s = catch_status([&] { (void)parse_gsrc_bst(in, "empty.bst"); });
    EXPECT_EQ(s.code(), util::StatusCode::invalid_input);
    EXPECT_EQ(s.file(), "empty.bst");
}

TEST(IspdParser, BadSinkCountReportsLocation) {
    std::istringstream in("num sink lots\n");
    const util::Status s = catch_status([&] { (void)parse_ispd09(in, "f11.cns"); });
    EXPECT_EQ(s.code(), util::StatusCode::invalid_input);
    EXPECT_EQ(s.file(), "f11.cns");
    EXPECT_EQ(s.line(), 1);
    EXPECT_EQ(s.column(), 10);  // the "lots" token
}

TEST(IspdParser, TruncatedSectionPointsAtLastToken) {
    std::istringstream in("num sink 3\n1 0 0 5\n");
    const util::Status s = catch_status([&] { (void)parse_ispd09(in, "f12.cns"); });
    EXPECT_EQ(s.code(), util::StatusCode::invalid_input);
    EXPECT_EQ(s.line(), 2);
    EXPECT_EQ(s.column(), 7);  // the final "5" before the stream ended
}

TEST(IspdParser, NonNumericCoordinatePointsAtTheToken) {
    std::istringstream in("num sink 1\ns1 abc 40 7\n");
    const util::Status s = catch_status([&] { (void)parse_ispd09(in, "f13.cns"); });
    EXPECT_EQ(s.code(), util::StatusCode::invalid_input);
    EXPECT_EQ(s.line(), 2);
    EXPECT_EQ(s.column(), 4);  // "abc"
}

TEST(IspdParser, NonNumericCapacitancePointsAtTheToken) {
    std::istringstream in("num sink 1\ns1 30 40 heavy\n");
    const util::Status s = catch_status([&] { (void)parse_ispd09(in, "f14.cns"); });
    EXPECT_EQ(s.code(), util::StatusCode::invalid_input);
    EXPECT_EQ(s.line(), 2);
    EXPECT_EQ(s.column(), 10);  // "heavy"
}

// ---- numbers that parse but are not finite, in-range doubles --------------

TEST(IspdParser, OverflowingCoordinatePointsAtTheToken) {
    std::istringstream in("num sink 1\n0 1e400 5 10\n");
    const util::Status s = catch_status([&] { (void)parse_ispd09(in, "f15.cns"); });
    EXPECT_EQ(s.code(), util::StatusCode::invalid_input);
    EXPECT_EQ(s.line(), 2);
    EXPECT_EQ(s.column(), 3);  // "1e400"
}

TEST(IspdParser, NonFiniteCapacitancePointsAtTheToken) {
    for (const char* cap : {"inf", "nan", "-infinity"}) {
        std::istringstream in(std::string("num sink 1\ns1 30 40 ") + cap + "\n");
        const util::Status s = catch_status([&] { (void)parse_ispd09(in, "f16.cns"); });
        EXPECT_EQ(s.code(), util::StatusCode::invalid_input) << cap;
        EXPECT_EQ(s.line(), 2) << cap;
        EXPECT_EQ(s.column(), 10) << cap;
    }
}

TEST(IspdParser, OutOfRangeSinkCountPointsAtTheCount) {
    // The count is range-checked before any int cast.
    for (const char* count : {"1e400", "inf", "1e10", "-3", "2.5"}) {
        std::istringstream in(std::string("num sink ") + count + "\n0 1 2 3\n");
        const util::Status s = catch_status([&] { (void)parse_ispd09(in, "f17.cns"); });
        EXPECT_EQ(s.code(), util::StatusCode::invalid_input) << count;
        EXPECT_EQ(s.line(), 1) << count;
        EXPECT_EQ(s.column(), 10) << count;
    }
}

TEST(GsrcParser, OutOfRangeNumberPointsAtTheToken) {
    const struct {
        const char* text;
        int column;
    } cases[] = {{"s0 10 1e400 5\n", 7},   // overflowing y
                 {"s0 1e-400 20 5\n", 4},  // underflowing x
                 {"10 20 nan\n", 7},       // non-finite cap, bare triple
                 {"10 abc 5\n", 4}};       // bare triple, non-numeric y
    for (const auto& c : cases) {
        std::istringstream in(c.text);
        const util::Status s = catch_status([&] { (void)parse_gsrc_bst(in, "r2.bst"); });
        EXPECT_EQ(s.code(), util::StatusCode::invalid_input) << c.text;
        EXPECT_EQ(s.line(), 1) << c.text;
        EXPECT_EQ(s.column(), c.column) << c.text;
    }
}

TEST(Synthetic, SuiteMatchesPublishedSinkCounts) {
    // Table 5.1 / 5.2 instance sizes.
    const int gsrc_counts[] = {267, 598, 862, 1903, 3101};
    const auto& gsrc = gsrc_suite();
    ASSERT_EQ(gsrc.size(), 5u);
    for (std::size_t i = 0; i < gsrc.size(); ++i)
        EXPECT_EQ(gsrc[i].sink_count, gsrc_counts[i]) << gsrc[i].name;

    const int ispd_counts[] = {121, 117, 117, 91, 273, 190, 330};
    const auto& ispd = ispd_suite();
    ASSERT_EQ(ispd.size(), 7u);
    for (std::size_t i = 0; i < ispd.size(); ++i)
        EXPECT_EQ(ispd[i].sink_count, ispd_counts[i]) << ispd[i].name;
}

TEST(Synthetic, GenerationIsDeterministic) {
    const auto spec = *find_benchmark("r1");
    const auto a = generate(spec);
    const auto b = generate(spec);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.size(), 267u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a[i].pos.x, b[i].pos.x);
        EXPECT_DOUBLE_EQ(a[i].cap_ff, b[i].cap_ff);
    }
}

TEST(Synthetic, SinksWithinDieAndCapBand) {
    for (const auto& spec : full_suite()) {
        const auto sinks = generate(spec);
        EXPECT_EQ(static_cast<int>(sinks.size()), spec.sink_count);
        for (const auto& s : sinks) {
            EXPECT_GE(s.pos.x, 0.0);
            EXPECT_LE(s.pos.x, spec.die_span_um);
            EXPECT_GE(s.cap_ff, spec.cap_min_ff);
            EXPECT_LE(s.cap_ff, spec.cap_max_ff);
        }
    }
}

TEST(Synthetic, FindBenchmarkLookupWorks) {
    EXPECT_TRUE(find_benchmark("fnb1").has_value());
    EXPECT_FALSE(find_benchmark("nope").has_value());
}

}  // namespace
}  // namespace ctsim::bench_io
