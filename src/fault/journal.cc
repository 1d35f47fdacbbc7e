#include "fault/journal.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <iterator>
#include <limits>
#include <type_traits>

#include "common/cli.hh"
#include "common/logging.hh"

namespace mparch::fault {

namespace {

using Header = JournalHeader;
using Record = TrialRecord;
using Text = std::string_view;
template <typename T>
using Bound = std::type_identity_t<T>;

/** The first line of every v1 journal. */
constexpr Text kMagic = "#mparch-journal v1";

/** The `kind-filter` of a campaign that strikes every op kind. */
constexpr auto kAnyKind = static_cast<unsigned>(fp::OpKind::NumKinds);

static_assert(kTimeoutFactor == 4, "v1 journals record a factor of 4");
static_assert(cli::kMaxScale == 16, "the scale row says 16");
static_assert(cli::kMaxTrials == 1'000'000, "the trials row says 1000000");

std::optional<OutcomeKind>
parseOutcome(Text text)
{
    for (auto o : {OutcomeKind::Masked, OutcomeKind::Sdc,
                   OutcomeKind::Due, OutcomeKind::Detected}) {
        if (text == outcomeKindName(o))
            return o;
    }
    return std::nullopt;
}

/** The text of @p rest up to the first @p delim (all of it when there
 *  is none), removed from @p rest with the delimiter. */
Text
take(Text &rest, char delim)
{
    const std::size_t at = std::min(rest.find(delim), rest.size());
    const Text field = rest.substr(0, at);
    rest.remove_prefix(std::min(at + 1, rest.size()));
    return field;
}

/**
 * One pass over one journal field: a read parses the whole of @c in
 * into the value and checks its range; a write appends the value's
 * text to @c out. A header row or record column is one function of a
 * Codec, so its reader and writer cannot disagree on the field.
 */
struct Codec
{
    Text in = {};
    std::string *out = nullptr;  ///< set when the pass writes

    /** Room for any number's text (a %.17g double takes 24 chars). */
    static constexpr std::size_t kChars = 32;

    bool
    put(Text t)
    {
        out->append(t);
        return true;
    }

    /** An integer (in @p base), or a double as %.17g, which
     *  round-trips; a read must lie in [@p lo, @p hi], where no NaN
     *  does. from_chars takes no spaces, '+' or trailing junk. */
    template <typename T>
    bool
    number(T &v, Bound<T> lo = std::numeric_limits<T>::lowest(),
           Bound<T> hi = std::numeric_limits<T>::max(), int base = 10)
    {
        constexpr auto general = std::chars_format::general;
        const char *end = in.data() + in.size();
        char buf[kChars];
        T got{};
        std::from_chars_result r;
        if constexpr (std::is_floating_point_v<T>) {
            if (out) {
                return put({buf, std::to_chars(buf, buf + kChars, v,
                                               general, 17).ptr});
            }
            r = std::from_chars(in.data(), end, got);
        } else {
            if (out) {
                return put(
                    {buf, std::to_chars(buf, buf + kChars, v, base).ptr});
            }
            r = std::from_chars(in.data(), end, got, base);
        }
        if (r.ec != std::errc() || r.ptr != end || !(got >= lo && got <= hi))
            return false;
        v = got;
        return true;
    }

    /** A double in its shortest round-trip text ("0.1"). */
    bool
    shortest(double &v, double lo, double hi)
    {
        char buf[kChars];
        return out ? put({buf, std::to_chars(buf, buf + kChars, v).ptr})
                   : number(v, lo, hi);
    }

    /** An enumerator, by the name @p nameOf gives and @p parse takes. */
    template <typename T, typename Name, typename Parse>
    bool
    name(T &v, Name nameOf, Parse parse)
    {
        if (out)
            return put(nameOf(v));
        const auto got = parse(in);
        v = got.value_or(v);
        return got.has_value();
    }

    bool
    flag(bool &v)
    {
        if (out)
            return put(v ? "1" : "0");
        v = in == "1";
        return v || in == "0";
    }

    /** A fixed v1 value. */
    bool fixed(Text value) { return out ? put(value) : in == value; }
};

/** Engine allocations as name:kind:units:period:lo:hi;... Each needs a
 *  name, an op kind and a unit, the units summing within 64 bits; a
 *  persistent journal (its kind is read first) needs one. */
bool
engines(Codec &c, Header &h)
{
    if (c.out) {
        for (const auto &a : h.engines) {
            *c.out += detail::concat(
                &a == h.engines.data() ? "" : ";", a.engine.name, ":",
                static_cast<int>(a.engine.kind), ":", a.units, ":",
                a.engine.period, ":", a.engine.lo, ":", a.engine.hi);
        }
        return true;
    }
    h.engines.clear();
    std::uint64_t units = 0;
    for (Text list = c.in; !list.empty();) {
        Text entry = take(list, ';');
        Codec f[6];
        for (Codec &field : f)
            field.in = &field == &f[5] ? entry : take(entry, ':');
        EngineAllocation a;
        unsigned kind = 0;
        a.engine.name = f[0].in;
        if (a.engine.name.empty() || !f[1].number(kind, 0, kAnyKind - 1) ||
            !f[2].number(a.units, 1, ~units) ||
            !f[3].number(a.engine.period) || !f[4].number(a.engine.lo) ||
            !f[5].number(a.engine.hi))
            return false;
        a.engine.kind = static_cast<fp::OpKind>(kind);
        units += a.units;
        h.engines.push_back(a);
    }
    return h.kind != CampaignKind::Persistent || !h.engines.empty();
}

/**
 * One field of the v1 format: a `#key=value` header row of @p T =
 * JournalHeader, or a record column of @p T = TrialRecord. A refusal
 * quotes @c accepts; a field without a codec is fixed to it. A resume
 * mismatch of the field ends with @c hint.
 */
template <typename T>
struct Field
{
    const char *key;
    const char *accepts;
    bool (*code)(Codec &c, T &into) = nullptr;
    const char *hint = "";
};

/** The v1 record, in writer order. A non-finite output deviates by
 *  infinity (relativeDeviation). */
constexpr Field<Record> kColumns[] = {
    {"index", "an integer above the previous record's and below trials",
     [](Codec &c, Record &r) { return c.number(r.index); }},
    {"outcome", "masked, sdc, due or detected",
     [](Codec &c, Record &r) {
         return c.name(r.outcome, outcomeKindName, parseOutcome);
     }},
    {"max_rel", "a number at least 0, or inf",
     [](Codec &c, Record &r) { return c.number(r.maxRel, 0, HUGE_VAL); }},
    {"corrupted_fraction", "a number from 0 to 1",
     [](Codec &c, Record &r) { return c.number(r.corruptedFraction, 0, 1); }},
    {"severity", "an integer from -1 to 2",
     [](Codec &c, Record &r) { return c.number(r.severity, -1, 2); }},
    {"bit", "an integer from -1 to 63",
     [](Codec &c, Record &r) { return c.number(r.bit, -1, 63); }},
    {"field", "an integer from -1 to 3",
     [](Codec &c, Record &r) { return c.number(r.field, -1, 3); }},
    {"retries", "0"},
};

/** The v1 header, in writer order; its last line names the columns. */
constexpr Field<Header> kHeaderRows[] = {
    {"kind", "memory, datapath or persistent",
     [](Codec &c, Header &h) {
         return c.name(h.kind, campaignKindName, parseCampaignKind);
     }},
    {"workload", "a workload name",
     [](Codec &c, Header &h) {
         return c.out ? c.put(h.workload) : !(h.workload = c.in).empty();
     }},
    {"precision", "half, single, double or bfloat16",
     [](Codec &c, Header &h) {
         return c.name(h.precision, fp::precisionName, fp::parsePrecision);
     }},
    {"scale", "a number above 0 and at most 16",
     [](Codec &c, Header &h) {
         return c.shortest(h.scale, 0, cli::kMaxScale) && h.scale > 0;
     }},
    {"trials", "an integer from 1 to 1000000",
     [](Codec &c, Header &h) {
         return c.number(h.config.trials, 1, cli::kMaxTrials);
     }},
    {"seed", "an unsigned 64-bit integer",
     [](Codec &c, Header &h) { return c.number(h.config.seed); }},
    {"input-seed", "an unsigned 64-bit integer",
     [](Codec &c, Header &h) { return c.number(h.config.inputSeed); }},
    {"model",
     "single-bit-flip, double-bit-flip, random-byte, random-value or "
     "word-burst",
     [](Codec &c, Header &h) {
         return c.name(h.config.model, faultModelName, parseFaultModel);
     }},
    {"timeout-factor", "4"},
    {"operand-stages-only", "0 or 1",
     [](Codec &c, Header &h) { return c.flag(h.config.operandStagesOnly); }},
    {"record-anatomy", "0 or 1",
     [](Codec &c, Header &h) { return c.flag(h.config.recordAnatomy); }},
    {"kind-filter", "an op kind from 0 to 8 (8: every kind)",
     [](Codec &c, Header &h) {
         auto kind = static_cast<unsigned>(h.kindFilter);
         const bool ok = c.number(kind, 0, kAnyKind);
         h.kindFilter = static_cast<fp::OpKind>(kind);
         return ok;
     }},
    {"engines",
     "name:kind:units:period:lo:hi entries joined by ';', each with a "
     "name, an op kind from 0 to 7 and at least 1 unit; at least one in "
     "a persistent journal",
     engines},
    {"shard", "0/1"},
    {"golden", "1 to 16 hex digits",
     [](Codec &c, Header &h) {
         return c.in.size() <= 16 &&
                c.number(h.goldenFingerprint, 0, UINT64_MAX, 16);
     },
     ": the golden-run fingerprints differ, so the workload, its inputs "
     "or the FP model changed"},
    {"columns", "the v1 column names",
     [](Codec &c, Header &) {
         std::string names;
         for (const auto &column : kColumns)
             names += detail::concat(names.empty() ? "" : ",", column.key);
         return c.fixed(names);
     }},
};

/** Read or write @p into's @p field through @p c. */
template <typename T>
bool
code(const Field<T> &field, Codec &c, T &into)
{
    return field.code ? field.code(c, into) : c.fixed(field.accepts);
}

/** The written text of @p field of @p from. */
template <typename T>
std::string
textOf(const Field<T> &field, T from)
{
    std::string text;
    Codec c{.out = &text};
    code(field, c, from);
    return text;
}

/** The magic line and the header rows of @p header. */
std::string
formatJournalHeader(const JournalHeader &header)
{
    std::string text = detail::concat(kMagic, "\n");
    for (const auto &row : kHeaderRows)
        text += detail::concat("#", row.key, "=", textOf(row, header), "\n");
    return text;
}

} // namespace

const char *
campaignKindName(CampaignKind kind)
{
    switch (kind) {
      case CampaignKind::Memory:     return "memory";
      case CampaignKind::Datapath:   return "datapath";
      case CampaignKind::Persistent: return "persistent";
    }
    return "?";
}

std::optional<CampaignKind>
parseCampaignKind(std::string_view text)
{
    for (auto k : {CampaignKind::Memory, CampaignKind::Datapath,
                   CampaignKind::Persistent}) {
        if (text == campaignKindName(k))
            return k;
    }
    return std::nullopt;
}

std::uint64_t
goldenFingerprint(const GoldenRun &golden)
{
    // FNV-1a over the output bit patterns and the tick count.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix_word = [&h](std::uint64_t word) {
        for (int i = 0; i < 8; ++i) {
            h ^= (word >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    for (std::uint64_t bits : golden.outputBits)
        mix_word(bits);
    mix_word(golden.ticks);
    return h;
}

std::string
JournalHeader::mismatch(const JournalHeader &other) const
{
    for (const auto &row : kHeaderRows) {
        const std::string mine = textOf(row, *this);
        const std::string theirs = textOf(row, other);
        if (mine != theirs) {
            return detail::concat(row.key, " mismatch (journal: ", mine,
                                  ", campaign: ", theirs, ")", row.hint);
        }
    }
    return {};
}

TrialRecord
makeTrialRecord(std::uint64_t index, const TrialOutcome &trial)
{
    TrialRecord rec;
    rec.index = index;
    rec.outcome = trial.outcome;
    if (trial.outcome == OutcomeKind::Sdc) {
        rec.maxRel = trial.sdc.maxRel;
        rec.corruptedFraction = trial.sdc.corruptedFraction;
        rec.severity = static_cast<int>(trial.sdc.severity);
    }
    if (trial.hasAnatomy) {
        rec.bit = trial.anatomy.bit;
        rec.field = static_cast<int>(trial.anatomy.field);
    }
    return rec;
}

std::string
firstDifferingColumn(const TrialRecord &a, const TrialRecord &b)
{
    // %.17g round-trips, so equal text is equal value.
    for (const auto &column : kColumns)
        if (textOf(column, a) != textOf(column, b))
            return column.key;
    return "";
}

void
accumulate(CampaignResult &result, const TrialRecord &record)
{
    TrialOutcome trial;
    trial.outcome = record.outcome;
    if (record.outcome == OutcomeKind::Sdc) {
        trial.sdc.maxRel = record.maxRel;
        trial.sdc.corruptedFraction = record.corruptedFraction;
        trial.sdc.severity = static_cast<workloads::SdcSeverity>(
            record.severity < 0 ? 0 : record.severity);
    }
    if (record.bit >= 0) {
        trial.hasAnatomy = true;
        trial.anatomy.bit = record.bit;
        trial.anatomy.field =
            static_cast<FaultAnatomy::Field>(record.field);
        trial.anatomy.outcome = record.outcome;
        trial.anatomy.maxRel = record.maxRel;
    }
    accumulate(result, trial);
}

JournalWriter::JournalWriter(const std::string &path,
                             const JournalHeader &header,
                             std::uint64_t batch, bool truncate)
    : batch_(batch ? batch : 1)
{
    out_.open(path, std::ios::out | (truncate ? std::ios::trunc
                                              : std::ios::app));
    if (out_ && truncate)
        out_ << formatJournalHeader(header) << std::flush;
    ok_ = static_cast<bool>(out_);
}

JournalWriter::~JournalWriter() { flush(); }

void
JournalWriter::append(const TrialRecord &record)
{
    if (!ok_)
        return;
    TrialRecord r = record;
    std::string line;
    Codec c{.out = &line};
    for (const auto &column : kColumns) {
        code(column, c, r);
        line += &column == std::end(kColumns) - 1 ? '\n' : ',';
    }
    out_ << line;
    if (++pending_ >= batch_)
        flush();
    if (!out_)
        ok_ = false;
}

void
JournalWriter::flush()
{
    if (!ok_)
        return;
    pending_ = 0;
    ok_ = static_cast<bool>(out_.flush());
}

std::optional<Journal>
readJournal(const std::string &path, std::string *error)
{
    const auto fail = [error](const auto &...why) {
        if (error)
            *error = detail::concat(why...);
        return std::nullopt;
    };
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return fail("cannot open '", path, "'");
    const std::string text{std::istreambuf_iterator<char>(in), {}};

    // Every line ends in '\n'; text after the last one is a torn write.
    Text rest = text, line;
    const auto nextLine = [&] {
        const std::size_t nl = rest.find('\n');
        line = rest.substr(0, nl);
        rest.remove_prefix(std::min(nl + 1, rest.size()));
        return nl != Text::npos;
    };
    if (!nextLine() || line != kMagic)
        return fail("the first line is not '", kMagic, "'");

    // The header rows, each "#key=value" in this order. A later key (or
    // a line with no "#key=") means the expected one is missing; a
    // repeated or unknown key is refused by name.
    Journal journal;
    Codec c;
    for (const auto &row : kHeaderRows) {
        const std::size_t eq = nextLine() && line.starts_with('#')
                                   ? line.find('=')
                                   : Text::npos;
        const Text key = eq == Text::npos ? "" : line.substr(1, eq - 1);
        c.in = line.substr(std::min(eq + 1, line.size()));
        if (key.empty() || std::any_of(&row + 1, std::end(kHeaderRows),
                                       [&](auto &r) { return key == r.key; }))
            return fail("missing ", row.key);
        if (key != row.key)
            return fail("bad ", key, " '", c.in, "': expected ", row.key);
        if (!code(row, c, journal.header))
            return fail("bad ", key, " '", c.in, "': must be ", row.accepts);
    }

    // Every newline-terminated record must read, its index below trials
    // and above the previous one: cut as a torn tail, a bad record would
    // make resume truncate the valid records after it.
    std::vector<Record> &records = journal.records;
    while (nextLine()) {
        Record rec;
        for (const auto &column : kColumns) {
            const bool last = &column == std::end(kColumns) - 1;
            c.in = last ? line : take(line, ',');
            if (!code(column, c, rec) ||
                (&column == kColumns &&
                 (rec.index >= journal.header.config.trials ||
                  (!records.empty() && rec.index <= records.back().index))))
                return fail("bad ", column.key, " '", c.in, "' in record ",
                            records.size(), ": must be ", column.accepts);
        }
        records.push_back(rec);
    }
    // nextLine() left any unterminated tail in rest.
    journal.validBytes = text.size() - rest.size();
    return journal;
}

} // namespace mparch::fault
