/**
 * @file
 * Structured fuzzer for journal input. Mutations of the three pinned
 * journals (per header key, per record, random byte flips) must each
 * be refused with a message or read, resumed and replayed to
 * completion: readJournal, a resume of the pinned campaign from the
 * mutated file, and replayTrial of three indices. None may abort,
 * call fatal() or let an exception escape.
 *
 * The cases run in a forked copy of this test process, so a case that
 * aborts or exits is caught like one that throws. A failing case is
 * shrunk to the fewest of its edits that still fail, as
 * verify::shrinkCase shrinks operands.
 */

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/memo.hh"
#include "common/rng.hh"
#include "fault/journal.hh"
#include "fault/supervisor.hh"
#include "nn/nn_workloads.hh"
#include "test_util.hh"

namespace mparch::fault {
namespace {

using test::slurp;
using test::tempPath;

/** Replace @c size bytes at @c at with @c text; both clamp to the
 *  text an edit applies to. */
struct Edit
{
    std::size_t at;
    std::size_t size;
    std::string text;
};

/** One mutated journal: the pinned file and the edits applied to it
 *  in order. */
struct Case
{
    std::string journal;
    std::string what;
    std::vector<Edit> edits;
};

const char *const kJournals[] = {"memory", "datapath", "persistent"};

/** Header values tried on every key: empty, non-numeric, negative,
 *  2^64 and out of every enum (and above the scale cap). */
const char *const kBadValues[] = {"", "abc", "-1",
                                  "18446744073709551616", "99"};

/** Cases of random byte flips, 1 to 3 flips each. */
constexpr std::uint64_t kFlipCases = 1000;

/** Trials replayed from every journal that reads. */
constexpr std::uint64_t kReplayed[] = {0, 13, 29};

const std::string &
pinned(const std::string &name)
{
    static std::map<std::string, std::string> texts;
    auto &text = texts[name];
    if (text.empty()) {
        text = slurp(std::string(MPARCH_PINNED_JOURNALS) + "/" + name +
                     ".mpj");
    }
    return text;
}

std::string
applyEdits(const Case &c)
{
    std::string text = pinned(c.journal);
    for (const Edit &e : c.edits) {
        const std::size_t at = std::min(e.at, text.size());
        text.replace(at, std::min(e.size, text.size() - at), e.text);
    }
    return text;
}

void
spit(const std::string &path, const std::string &text)
{
    std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
}

/** The lines of @p text as [begin, end) spans, each with its '\n'. */
std::vector<std::pair<std::size_t, std::size_t>>
lineSpans(const std::string &text)
{
    std::vector<std::pair<std::size_t, std::size_t>> lines;
    for (std::size_t at = 0; at < text.size();) {
        const std::size_t end = text.find('\n', at) + 1;
        lines.emplace_back(at, end);
        at = end;
    }
    return lines;
}

std::vector<Case>
structuredCases(const std::string &name)
{
    const std::string &text = pinned(name);
    const auto lines = lineSpans(text);
    std::vector<Case> cases;
    const auto add = [&](std::string what, std::vector<Edit> edits) {
        cases.push_back({name, name + ": " + what, std::move(edits)});
    };
    std::size_t first_record = 0;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const auto [begin, end] = lines[i];
        const std::string line = text.substr(begin, end - begin);
        if (line[0] != '#') {
            first_record = i;
            break;
        }
        const std::string key = line.substr(0, line.find('='));
        add("delete " + key, {{begin, end - begin, ""}});
        add("duplicate " + key, {{begin, 0, line}});
        const std::size_t eq = line.find('=');
        if (eq == std::string::npos)
            continue;
        for (const char *bad : kBadValues) {
            add(key + "=" + bad,
                {{begin + eq + 1, end - begin - eq - 2, bad}});
        }
    }
    // Cuts at every byte of the first, a middle and the last record,
    // and once inside the body of every other record: a cut resumes
    // every trial after it, and the reader only tells a line with its
    // newline from one without.
    const std::size_t records = lines.size() - first_record;
    const std::size_t cut_records[] = {0, records / 2, records - 1};
    for (std::size_t i = first_record; i < lines.size(); ++i) {
        const auto [begin, end] = lines[i];
        const std::size_t r = i - first_record;
        const std::string record = "record " + std::to_string(r);
        if (std::count(std::begin(cut_records), std::end(cut_records), r)) {
            for (std::size_t cut = begin; cut < end; ++cut) {
                add(record + " cut after " + std::to_string(cut - begin) +
                        " bytes",
                    {{cut, std::string::npos, ""}});
            }
        } else {
            const std::size_t cut = (end - 1 - begin) / 2;
            add(record + " cut after " + std::to_string(cut) + " bytes",
                {{begin + cut, std::string::npos, ""}});
        }
        // Column c: the field and the comma before it (after it, for
        // the first).
        std::size_t field = begin;
        for (int c = 0; field < end; ++c) {
            const std::size_t next =
                std::min(text.find(',', field), end - 1);
            add(record + " without column " + std::to_string(c),
                {c == 0 ? Edit{field, next + 1 - field, ""}
                        : Edit{field - 1, next + 1 - field, ""}});
            field = next + 1;
        }
        add(record + " with a ninth column", {{end - 1, 0, ",0"}});
        if (i + 1 < lines.size()) {
            const auto [next_begin, next_end] = lines[i + 1];
            add(record + " swapped with the next",
                {{begin, next_end - begin,
                  text.substr(next_begin, next_end - next_begin) +
                      text.substr(begin, end - begin)}});
        }
        if (i > first_record) {
            const std::size_t prev = lines[i - 1].first;
            add(record + " repeats the previous index",
                {{begin, text.find(',', begin) - begin,
                  text.substr(prev, text.find(',', prev) - prev)}});
        }
    }
    return cases;
}

/** Counter-seeded byte flips anywhere but in the `#scale=` value,
 *  whose in-range values only change how long a golden run takes. */
Case
flipCase(std::uint64_t index)
{
    Rng rng = trialRng(0x6a6f75726e616cULL, index);
    Case c;
    c.journal = kJournals[index % std::size(kJournals)];
    const std::string &text = pinned(c.journal);
    const std::size_t scale = text.find("#scale=") + 7;
    const std::size_t scale_size = text.find('\n', scale) - scale;
    c.what = c.journal + ": byte flips";
    for (std::uint64_t n = 1 + rng.below(3); n > 0; --n) {
        std::size_t at = rng.below(text.size() - scale_size);
        at += at >= scale ? scale_size : 0;
        const auto byte = static_cast<char>(rng.below(256));
        c.edits.push_back({at, 1, std::string(1, byte)});
        c.what += " " + std::to_string(at) + ":" +
                  std::to_string(static_cast<unsigned char>(byte));
    }
    return c;
}

/** The files a case is written to: one to read and replay, a copy to
 *  resume. Named once by the test process, not by its children. */
struct Scratch
{
    std::string read = tempPath("fuzzed.mpj");
    std::string resume = tempPath("fuzzed-resume.mpj");
};

/**
 * Whether @p c is refused with a message or runs to completion. An
 * exception counts as a failure here; an abort or exit ends the
 * (forked) process.
 */
bool
holds(const Case &c, const Scratch &scratch)
{
    // A mutated #input-seed= computes a fresh golden run; a cleared
    // cache keeps each case independent of the ones before it.
    common::clearMemos();
    const std::string text = applyEdits(c);
    spit(scratch.read, text);
    spit(scratch.resume, text);
    try {
        std::string why;
        const auto journal = readJournal(scratch.read, &why);
        if (!journal)
            return !why.empty();

        // The pinned campaign, resumed from the mutated file.
        const auto pinned_journal = readJournal(
            std::string(MPARCH_PINNED_JOURNALS) + "/" + c.journal + ".mpj");
        const JournalHeader &h = pinned_journal->header;
        auto w = nn::makeAnyWorkload(h.workload, h.precision, h.scale);
        SupervisorConfig supervisor;
        supervisor.journalPath = scratch.resume;
        supervisor.resume = true;
        const auto run = runSupervisedCampaign(
            *w, h.kind, h.config, supervisor, h.kindFilter, h.engines);
        if (run.error.empty() && !run.complete())
            return false;

        // Replays read the workload from the mutated header.
        const JournalHeader &m = journal->header;
        if (!nn::findAnyWorkload(m.workload))
            return true;  // refused: unknown workload
        auto replayed = nn::makeAnyWorkload(m.workload, m.precision, m.scale);
        for (const std::uint64_t index : kReplayed)
            (void)replayTrial(*replayed, *journal, index);
        return true;
    } catch (const std::exception &e) {
        std::cerr << c.what << ": " << e.what() << "\n";
    } catch (...) {
        std::cerr << c.what << ": non-standard exception\n";
    }
    return false;
}

/**
 * Run @p cases from @p from on in a forked child and return the
 * index of the first that fails (it threw, aborted or exited, or was
 * refused without a message); cases.size() when none does.
 */
std::size_t
firstFailure(const std::vector<Case> &cases, std::size_t from,
             const Scratch &scratch)
{
    int fds[2];
    std::fflush(nullptr);
    const pid_t pid = ::pipe(fds) == 0 ? ::fork() : -1;
    if (pid < 0) {
        ADD_FAILURE() << "cannot fork a child to run the cases in";
        return cases.size();
    }
    if (pid == 0) {
        ::close(fds[0]);
        for (std::size_t i = from; i < cases.size(); ++i) {
            if (::write(fds[1], &i, sizeof(i)) != sizeof(i) ||
                !holds(cases[i], scratch))
                ::_exit(1);
        }
        ::_exit(0);
    }
    ::close(fds[1]);
    std::size_t started = from, i = 0;
    while (::read(fds[0], &i, sizeof(i)) == sizeof(i))
        started = i;
    ::close(fds[0]);
    int status = 0;
    ::waitpid(pid, &status, 0);
    return WIFEXITED(status) && WEXITSTATUS(status) == 0 ? cases.size()
                                                         : started;
}

/** The fewest of @p c's edits that still fail, dropped one at a
 *  time while the case keeps failing. */
Case
shrink(Case c, const Scratch &scratch)
{
    for (std::size_t i = 0; i < c.edits.size() && c.edits.size() > 1;) {
        Case fewer = c;
        fewer.edits.erase(fewer.edits.begin() + static_cast<long>(i));
        if (firstFailure({fewer}, 0, scratch) == 0)
            c = std::move(fewer);
        else
            ++i;
    }
    return c;
}

/** @p c's edits, non-printable bytes as \xNN. */
std::string
describe(const Case &c)
{
    std::ostringstream os;
    os << c.journal << ".mpj";
    for (const Edit &e : c.edits) {
        os << "; at byte " << e.at << " replace " << e.size
           << " bytes with '";
        for (const char ch : e.text) {
            if (std::isprint(static_cast<unsigned char>(ch))) {
                os << ch;
            } else {
                os << "\\x" << std::hex
                   << static_cast<int>(static_cast<unsigned char>(ch))
                   << std::dec;
            }
        }
        os << "'";
    }
    return os.str();
}

TEST(JournalFuzzTest, EveryMutationIsRefusedOrRuns)
{
    std::vector<Case> cases;
    for (const char *name : kJournals) {
        const auto structured = structuredCases(name);
        cases.insert(cases.end(), structured.begin(), structured.end());
    }
    for (std::uint64_t i = 0; i < kFlipCases; ++i)
        cases.push_back(flipCase(i));
    RecordProperty("cases", static_cast<int>(cases.size()));

    // Each failure restarts the child after it; the first few are
    // shrunk and reported.
    const Scratch scratch;
    std::size_t failures = 0;
    for (std::size_t at = 0;
         (at = firstFailure(cases, at, scratch)) < cases.size(); ++at) {
        if (++failures <= 5) {
            ADD_FAILURE() << cases[at].what
                          << ": neither refused nor run; shrunk to "
                          << describe(shrink(cases[at], scratch));
        }
    }
    EXPECT_EQ(failures, 0u) << "of " << cases.size() << " cases";
    std::remove(scratch.read.c_str());
    std::remove(scratch.resume.c_str());
}

} // namespace
} // namespace mparch::fault
