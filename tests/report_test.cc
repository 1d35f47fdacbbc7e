/**
 * @file
 * Tests for the report subsystem: the result-document model, the
 * shape-check predicate vocabulary (every predicate's pass, fail and
 * edge behaviour), the JSON writer/parser round trip with its
 * escaping and non-finite policy, and the registry's completeness
 * contract (all 33 experiments registered and fully declared).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <sstream>

#include "common/json.hh"
#include "report/document.hh"
#include "report/registry.hh"
#include "report/shapecheck.hh"

namespace mparch::report {
namespace {

/** A small two-table document the predicate tests select from. */
ResultDoc
sampleDoc()
{
    ResultDoc doc;
    auto &main = doc.addTable(
        "main", {"benchmark", "precision", "fit", "share"});
    main.row().cell("mxm").cell("double").cell({100.0, 1}).cell(
        {0.05, 2});
    main.row().cell("mxm").cell("single").cell({60.0, 1}).cell(
        {0.14, 2});
    main.row().cell("mxm").cell("half").cell({30.0, 1}).cell(
        {0.20, 2});
    main.row().cell("lud").cell("double").cell({40.0, 1}).cell(
        {0.10, 2});
    auto &other = doc.addTable("other", {"k", "v"});
    other.row().cell("a").cell({2.0, 3});
    other.row().cell("b").cell({8.0, 3});
    return doc;
}

Selector
fitOf(const std::string &benchmark)
{
    return sel("fit", {{"benchmark", benchmark}});
}

// ---------------------------------------------------------------
// Document model
// ---------------------------------------------------------------

TEST(Document, CellFormattingAndNumericView)
{
    EXPECT_EQ(Cell("text").formatted(), "text");
    EXPECT_EQ(Cell(1.25, 2).formatted(), "1.25");
    EXPECT_EQ(Cell(std::int64_t{42}).formatted(), "42");

    bool ok = false;
    EXPECT_DOUBLE_EQ(Cell(1.25, 2).asNumber(&ok), 1.25);
    EXPECT_TRUE(ok);
    EXPECT_DOUBLE_EQ(Cell(std::int64_t{42}).asNumber(&ok), 42.0);
    EXPECT_TRUE(ok);
    Cell("nope").asNumber(&ok);
    EXPECT_FALSE(ok);
}

TEST(Document, TableLookup)
{
    const ResultDoc doc = sampleDoc();
    ASSERT_NE(doc.table("main"), nullptr);
    ASSERT_NE(doc.table("other"), nullptr);
    EXPECT_EQ(doc.table("absent"), nullptr);

    const ResultTable &t = *doc.table("main");
    EXPECT_EQ(t.rowCount(), 4u);
    EXPECT_EQ(t.columnIndex("fit"), 2);
    EXPECT_EQ(t.columnIndex("absent"), -1);
    ASSERT_NE(t.at(1, "precision"), nullptr);
    EXPECT_EQ(t.at(1, "precision")->formatted(), "single");
    EXPECT_EQ(t.at(99, "precision"), nullptr);
    EXPECT_EQ(t.at(0, "absent"), nullptr);
}

TEST(Document, AllPassedIsVacuouslyTrue)
{
    ResultDoc doc;
    EXPECT_TRUE(doc.allPassed());
    doc.verdicts.push_back({"a", "", "", true});
    EXPECT_TRUE(doc.allPassed());
    doc.verdicts.push_back({"b", "", "", false});
    EXPECT_FALSE(doc.allPassed());
}

// ---------------------------------------------------------------
// Selector extraction
// ---------------------------------------------------------------

TEST(Selector, ExtractsFilteredSeriesInRowOrder)
{
    const ResultDoc doc = sampleDoc();
    std::string error;
    const auto series = extract(doc, fitOf("mxm"), &error);
    EXPECT_TRUE(error.empty()) << error;
    ASSERT_EQ(series.size(), 3u);
    EXPECT_DOUBLE_EQ(series[0], 100.0);
    EXPECT_DOUBLE_EQ(series[2], 30.0);
}

TEST(Selector, EmptyTableNameMeansFirstTable)
{
    const ResultDoc doc = sampleDoc();
    std::string error;
    const auto all = extract(doc, sel("fit"), &error);
    EXPECT_EQ(all.size(), 4u);

    const auto named = extract(doc, sel("v", {}, "other"), &error);
    ASSERT_EQ(named.size(), 2u);
    EXPECT_DOUBLE_EQ(named[1], 8.0);
}

TEST(Selector, ReportsMissingTableColumnRowsAndTextCells)
{
    const ResultDoc doc = sampleDoc();
    std::string error;

    EXPECT_TRUE(extract(doc, sel("fit", {}, "absent"), &error)
                    .empty());
    EXPECT_FALSE(error.empty());

    error.clear();
    EXPECT_TRUE(extract(doc, sel("absent"), &error).empty());
    EXPECT_FALSE(error.empty());

    error.clear();
    EXPECT_TRUE(
        extract(doc, sel("fit", {{"benchmark", "nope"}}), &error)
            .empty());
    EXPECT_FALSE(error.empty());

    error.clear();
    EXPECT_TRUE(extract(doc, sel("precision"), &error).empty());
    EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------
// Predicates: pass, fail and edge behaviour
// ---------------------------------------------------------------

CheckVerdict
runCheck(const ShapeCheck &check)
{
    return evaluate(check, sampleDoc());
}

TEST(Predicates, DecreasesAlong)
{
    EXPECT_TRUE(runCheck(decreasesAlong("d", "", fitOf("mxm"))).pass);
    EXPECT_FALSE(
        runCheck(decreasesAlong("d", "",
                                sel("share", {{"benchmark", "mxm"}})))
            .pass);
    // Slack admits a bounded uptick: series {2, 8} passes only with
    // an enormous slack.
    EXPECT_FALSE(
        runCheck(decreasesAlong("d", "", sel("v", {}, "other"))).pass);
    EXPECT_TRUE(
        runCheck(decreasesAlong("d", "", sel("v", {}, "other"), 4.0))
            .pass);
    // A single-row series cannot establish a trend.
    EXPECT_FALSE(
        runCheck(decreasesAlong("d", "", fitOf("lud"))).pass);
    // Selector errors are failures, not crashes.
    EXPECT_FALSE(
        runCheck(decreasesAlong("d", "", sel("absent"))).pass);
}

TEST(Predicates, IncreasesAlong)
{
    EXPECT_TRUE(
        runCheck(increasesAlong("i", "",
                                sel("share", {{"benchmark", "mxm"}})))
            .pass);
    EXPECT_FALSE(
        runCheck(increasesAlong("i", "", fitOf("mxm"))).pass);
    // Equal elements are not strict growth without slack.
    ResultDoc flat;
    flat.addTable("main", {"x"});
    auto &t = flat.tables[0];
    t.row().cell({5.0, 1});
    t.row().cell({5.0, 1});
    EXPECT_FALSE(
        evaluate(increasesAlong("i", "", sel("x")), flat).pass);
    EXPECT_TRUE(
        evaluate(increasesAlong("i", "", sel("x"), 0.01), flat).pass);
}

TEST(Predicates, ShareGrows)
{
    EXPECT_TRUE(
        runCheck(shareGrows("s", "",
                            sel("share", {{"benchmark", "mxm"}})))
            .pass);
    // Monotone but out of [0, 1] fails the share sanity check.
    EXPECT_FALSE(
        runCheck(shareGrows("s", "", sel("v", {}, "other"))).pass);
    // Non-monotone shares fail too.
    EXPECT_FALSE(runCheck(shareGrows("s", "", sel("share"))).pass);
}

TEST(Predicates, Exceeds)
{
    EXPECT_TRUE(runCheck(exceeds("e", "", fitOf("lud"),
                                 sel("fit", {{"precision", "half"}})))
                    .pass);
    EXPECT_FALSE(
        runCheck(exceeds("e", "",
                         sel("fit", {{"precision", "half"}}),
                         fitOf("lud")))
            .pass);
    // The factor scales the right-hand side: 40 > 1.4*30 fails.
    EXPECT_FALSE(
        runCheck(exceeds("e", "", fitOf("lud"),
                         sel("fit", {{"precision", "half"}}), 1.4))
            .pass);
    // A selector matching several rows is not a scalar.
    EXPECT_FALSE(runCheck(exceeds("e", "", fitOf("mxm"),
                                  fitOf("lud")))
                     .pass);
}

TEST(Predicates, RatioWithin)
{
    const auto half = sel("fit", {{"precision", "half"}});
    const auto lud = fitOf("lud");
    // 30 / 40 = 0.75.
    EXPECT_TRUE(
        runCheck(ratioWithin("r", "", half, lud, 0.7, 0.8)).pass);
    EXPECT_FALSE(
        runCheck(ratioWithin("r", "", half, lud, 0.8, 0.9)).pass);
    EXPECT_FALSE(
        runCheck(ratioWithin("r", "", half, lud, 0.5, 0.7)).pass);
}

TEST(Predicates, FlatWithin)
{
    // mxm fits span 100/30.
    EXPECT_TRUE(
        runCheck(flatWithin("f", "", fitOf("mxm"), 4.0)).pass);
    EXPECT_FALSE(
        runCheck(flatWithin("f", "", fitOf("mxm"), 3.0)).pass);
}

TEST(Predicates, AllBelowAllAbove)
{
    EXPECT_TRUE(
        runCheck(allBelow("b", "", fitOf("mxm"), 101.0)).pass);
    // Strict: an element equal to the bound fails.
    EXPECT_FALSE(
        runCheck(allBelow("b", "", fitOf("mxm"), 100.0)).pass);
    EXPECT_TRUE(
        runCheck(allAbove("a", "", fitOf("mxm"), 29.0)).pass);
    EXPECT_FALSE(
        runCheck(allAbove("a", "", fitOf("mxm"), 30.0)).pass);
}

TEST(Predicates, CustomAndEvaluateAll)
{
    ResultDoc doc = sampleDoc();
    const auto yes = custom("yes", "always", [](const ResultDoc &) {
        return CheckOutcome{true, "ok"};
    });
    const auto no = custom("no", "never", [](const ResultDoc &) {
        return CheckOutcome{false, "nope"};
    });
    evaluateAll({yes, no}, doc);
    ASSERT_EQ(doc.verdicts.size(), 2u);
    EXPECT_TRUE(doc.verdicts[0].pass);
    EXPECT_EQ(doc.verdicts[0].observed, "ok");
    EXPECT_FALSE(doc.verdicts[1].pass);
    EXPECT_FALSE(doc.allPassed());
}

// ---------------------------------------------------------------
// JSON: escaping, non-finite policy, round trip
// ---------------------------------------------------------------

TEST(Json, EscapesControlAndQuoteCharacters)
{
    EXPECT_EQ(json::escape("plain"), "plain");
    EXPECT_EQ(json::escape("a\"b"), "a\\\"b");
    EXPECT_EQ(json::escape("a\\b"), "a\\\\b");
    EXPECT_EQ(json::escape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(json::escape(std::string("a\x01z")), "a\\u0001z");
}

TEST(Json, NonFiniteNumbersBecomeNull)
{
    std::ostringstream os;
    json::Writer w(os);
    w.beginArray()
        .value(std::numeric_limits<double>::quiet_NaN())
        .value(std::numeric_limits<double>::infinity())
        .value(1.5)
        .endArray();

    json::Value v;
    std::string error;
    ASSERT_TRUE(json::parse(os.str(), v, &error)) << error;
    ASSERT_EQ(v.array.size(), 3u);
    EXPECT_TRUE(v.array[0].kind == json::Value::Kind::Null);
    EXPECT_TRUE(v.array[1].kind == json::Value::Kind::Null);
    EXPECT_DOUBLE_EQ(v.array[2].number, 1.5);
}

TEST(Json, WriterParserRoundTrip)
{
    std::ostringstream os;
    json::Writer w(os);
    w.beginObject()
        .member("name", "tab\tle \"x\"")
        .member("count", std::uint64_t{7})
        .member("ratio", 0.12345678901234567)
        .member("ok", true);
    w.key("rows").beginArray();
    w.beginObject().member("v", -3).endObject();
    w.endArray();
    w.key("none").null();
    w.endObject();

    json::Value v;
    std::string error;
    ASSERT_TRUE(json::parse(os.str(), v, &error)) << error;
    EXPECT_EQ(v.find("name")->string, "tab\tle \"x\"");
    EXPECT_DOUBLE_EQ(v.find("count")->number, 7.0);
    EXPECT_DOUBLE_EQ(v.find("ratio")->number, 0.12345678901234567);
    EXPECT_TRUE(v.find("ok")->boolean);
    EXPECT_EQ(v.find("rows")->array.size(), 1u);
    EXPECT_DOUBLE_EQ(
        v.find("rows")->array[0].find("v")->number, -3.0);
    EXPECT_TRUE(v.find("none")->kind == json::Value::Kind::Null);
    EXPECT_EQ(v.find("absent"), nullptr);
}

TEST(Json, ParserRejectsMalformedDocuments)
{
    json::Value v;
    std::string error;
    EXPECT_FALSE(json::parse("{\"a\": ", v, &error));
    EXPECT_FALSE(error.empty());
    error.clear();
    EXPECT_FALSE(json::parse("[1, 2,]", v, &error));
    EXPECT_FALSE(error.empty());
    error.clear();
    EXPECT_FALSE(json::parse("[1] trailing", v, &error));
    EXPECT_FALSE(error.empty());
}

TEST(Json, ResultDocRoundTripPreservesFullPrecision)
{
    ResultDoc doc = sampleDoc();
    doc.experiment = "unit_doc";
    doc.title = "unit \"doc\"";
    doc.trials = 12;
    doc.scale = 0.25;
    // Display rounds to 1 digit; JSON must keep every bit.
    doc.tables[0].row().cell("pi").cell("x").cell(
        {3.141592653589793, 1});
    doc.tables[0].rows();
    doc.notes.push_back("line\nbreak");
    doc.verdicts.push_back({"check", "desc", "obs", true});

    std::ostringstream os;
    doc.writeJson(os);

    json::Value v;
    std::string error;
    ASSERT_TRUE(json::parse(os.str(), v, &error)) << error;
    EXPECT_EQ(v.find("experiment")->string, "unit_doc");
    EXPECT_EQ(v.find("title")->string, "unit \"doc\"");
    EXPECT_DOUBLE_EQ(v.find("trials")->number, 12.0);

    const auto &tables = v.find("tables")->array;
    ASSERT_EQ(tables.size(), 2u);
    const auto &rows = tables[0].find("rows")->array;
    const auto &pi_row = rows.back().array;
    EXPECT_DOUBLE_EQ(pi_row[2].number, 3.141592653589793);

    EXPECT_EQ(v.find("notes")->array[0].string, "line\nbreak");
    const auto &verdict = v.find("checks")->array[0];
    EXPECT_EQ(verdict.find("id")->string, "check");
    EXPECT_TRUE(verdict.find("pass")->boolean);
}

TEST(Json, CsvEscapesDelimiters)
{
    ResultTable table("t", {"a", "b"});
    table.row().cell("x,y").cell("quo\"te");
    std::ostringstream os;
    ResultDoc::writeCsv(table, os);
    const std::string out = os.str();
    EXPECT_NE(out.find("\"x,y\""), std::string::npos) << out;
    EXPECT_NE(out.find("\"quo\"\"te\""), std::string::npos) << out;
}

// ---------------------------------------------------------------
// Registry
// ---------------------------------------------------------------

/** The registry entry @p id; null when unknown. */
const Experiment *
registered(const std::string &id)
{
    for (const auto &experiment : experiments())
        if (experiment.id == id)
            return &experiment;
    return nullptr;
}

TEST(Registry, LookupAndKnobResolution)
{
    const Experiment *e = registered("table1_fpga_time");
    ASSERT_NE(e, nullptr);

    RunContext ctx;
    EXPECT_EQ(e->trialsFor(ctx), e->defaultTrials);
    EXPECT_DOUBLE_EQ(e->scaleFor(ctx), e->defaultScale);
    ctx.trials = 7;
    ctx.scale = 0.9;
    EXPECT_EQ(e->trialsFor(ctx), 7u);
    EXPECT_DOUBLE_EQ(e->scaleFor(ctx), 0.9);

    EXPECT_DOUBLE_EQ(e->paperValue("mxm/double/time"), 2.730);
}

TEST(Registry, EveryEntryIsFullyDeclared)
{
    std::set<std::string> ids;
    for (const auto &e : experiments()) {
        EXPECT_TRUE(ids.insert(e.id).second)
            << "duplicate id " << e.id;
        EXPECT_TRUE(e.run != nullptr) << e.id;
        EXPECT_FALSE(e.title.empty()) << e.id;
        EXPECT_FALSE(e.shapeTarget.empty()) << e.id;
        EXPECT_FALSE(e.checks.empty())
            << e.id << " has no machine-checked shape target";
        for (const auto &check : e.checks) {
            EXPECT_FALSE(check.id.empty()) << e.id;
            EXPECT_TRUE(check.eval != nullptr) << e.id;
        }
    }
    // 19 paper tables/figures, 7 ablations and 6 extensions:
    // dropping an entry must fail here.
    EXPECT_EQ(ids.size(), 32u);
}

TEST(Registry, QuickTierIsNonEmpty)
{
    std::size_t quick = 0;
    for (const auto &e : experiments())
        quick += e.quick ? 1 : 0;
    EXPECT_GE(quick, 4u);
}

/**
 * End-to-end through runExperiment on the cheapest quick entry (a
 * pure timing-model experiment; no injection campaigns): metadata is
 * stamped and every declared check produces a verdict.
 */
TEST(Registry, RunExperimentStampsMetadataAndVerdicts)
{
    const Experiment *e = registered("table1_fpga_time");
    ASSERT_NE(e, nullptr);
    RunContext ctx;
    ctx.trials = 2;
    ctx.scale = 0.1;
    ctx.progress = false;

    const ResultDoc doc = runExperiment(*e, ctx);
    EXPECT_EQ(doc.experiment, e->id);
    EXPECT_EQ(doc.paperRef, e->paperRef);
    EXPECT_EQ(doc.kind, "table");
    EXPECT_EQ(doc.trials, 2u);
    EXPECT_DOUBLE_EQ(doc.scale, 0.1);
    EXPECT_EQ(doc.verdicts.size(), e->checks.size());
    EXPECT_FALSE(doc.tables.empty());
}

TEST(Registry, ScorecardTallies)
{
    ResultDoc clean;
    clean.experiment = "clean";
    clean.verdicts.push_back({"a", "", "", true});
    clean.verdicts.push_back({"b", "", "", true});
    ResultDoc dirty;
    dirty.experiment = "dirty";
    dirty.verdicts.push_back({"c", "", "", false});

    std::ostringstream os;
    const Scorecard card = printScorecard({clean, dirty}, os);
    EXPECT_EQ(card.checksRun, 3u);
    EXPECT_EQ(card.checksPassed, 2u);
    EXPECT_EQ(card.experimentsRun, 2u);
    EXPECT_EQ(card.experimentsClean, 1u);
    EXPECT_FALSE(card.allPassed());
    EXPECT_NE(os.str().find("dirty"), std::string::npos);
}

} // namespace
} // namespace mparch::report
