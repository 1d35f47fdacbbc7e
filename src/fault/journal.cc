#include "fault/journal.hh"

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>

#include "common/cli.hh"

namespace mparch::fault {

namespace {

constexpr const char *kMagic = "#mparch-journal";

/** Print a double so it round-trips exactly through text. */
std::string
fmtDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** The shortest text that round-trips @p v ("0.1", not
 *  "0.10000000000000001"), for the header's user-given knobs. */
std::string
fmtShortest(double v)
{
    char buf[40];
    return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

std::optional<OutcomeKind>
parseOutcome(const std::string &text)
{
    for (auto o : {OutcomeKind::Masked, OutcomeKind::Sdc,
                   OutcomeKind::Due, OutcomeKind::Detected}) {
        if (text == outcomeKindName(o))
            return o;
    }
    return std::nullopt;
}

/** Split a string on a delimiter (keeps empty fields). */
std::vector<std::string>
split(const std::string &text, char delim)
{
    std::vector<std::string> fields;
    std::string field;
    std::istringstream is(text);
    while (std::getline(is, field, delim))
        fields.push_back(field);
    return fields;
}

/** Serialise engine allocations: name:kind:units:period:lo:hi;... */
std::string
formatEngines(const std::vector<EngineAllocation> &engines)
{
    std::ostringstream os;
    for (std::size_t i = 0; i < engines.size(); ++i) {
        const auto &alloc = engines[i];
        os << (i ? ";" : "") << alloc.engine.name << ":"
           << static_cast<int>(alloc.engine.kind) << ":"
           << alloc.units << ":" << alloc.engine.period << ":"
           << alloc.engine.lo << ":" << alloc.engine.hi;
    }
    return os.str();
}

std::optional<std::vector<EngineAllocation>>
parseEngines(const std::string &text)
{
    std::vector<EngineAllocation> engines;
    if (text.empty())
        return engines;
    for (const auto &entry : split(text, ';')) {
        const auto fields = split(entry, ':');
        if (fields.size() != 6)
            return std::nullopt;
        EngineAllocation alloc;
        alloc.engine.name = fields[0];
        alloc.engine.kind = static_cast<fp::OpKind>(
            std::atoi(fields[1].c_str()));
        alloc.units = std::strtoull(fields[2].c_str(), nullptr, 10);
        alloc.engine.period =
            std::strtoull(fields[3].c_str(), nullptr, 10);
        alloc.engine.lo = std::strtoull(fields[4].c_str(), nullptr, 10);
        alloc.engine.hi = std::strtoull(fields[5].c_str(), nullptr, 10);
        engines.push_back(alloc);
    }
    return engines;
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
parseCampaignKind(const std::string &text)
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
    std::ostringstream os;
    const auto diff = [&os](const char *what, const auto &a,
                            const auto &b) -> bool {
        if (a == b)
            return false;
        os << what << " mismatch (journal: " << a << ", campaign: "
           << b << ")";
        return true;
    };
    if (diff("format version", version, other.version))
        return os.str();
    if (diff("campaign kind", campaignKindName(kind),
             campaignKindName(other.kind)))
        return os.str();
    if (diff("workload", workload, other.workload))
        return os.str();
    if (diff("precision", fp::precisionName(precision),
             fp::precisionName(other.precision)))
        return os.str();
    if (diff("scale", scale, other.scale))
        return os.str();
    if (diff("trials", config.trials, other.config.trials))
        return os.str();
    if (diff("seed", config.seed, other.config.seed))
        return os.str();
    if (diff("input seed", config.inputSeed,
             other.config.inputSeed))
        return os.str();
    if (diff("fault model", faultModelName(config.model),
             faultModelName(other.config.model)))
        return os.str();
    if (diff("timeout factor", config.timeoutFactor,
             other.config.timeoutFactor))
        return os.str();
    if (diff("operand-stages-only", config.operandStagesOnly,
             other.config.operandStagesOnly))
        return os.str();
    if (diff("record-anatomy", config.recordAnatomy,
             other.config.recordAnatomy))
        return os.str();
    if (diff("kind filter", static_cast<int>(kindFilter),
             static_cast<int>(other.kindFilter)))
        return os.str();
    if (diff("engines", formatEngines(engines),
             formatEngines(other.engines)))
        return os.str();
    if (diff("shard count", shardCount, other.shardCount))
        return os.str();
    if (diff("shard index", shardIndex, other.shardIndex))
        return os.str();
    if (goldenFingerprint != other.goldenFingerprint) {
        os << "golden-run fingerprint mismatch (journal: "
           << std::hex << goldenFingerprint << ", campaign: "
           << other.goldenFingerprint
           << "); the workload, its inputs or the FP model changed";
        return os.str();
    }
    return {};
}

std::string
formatJournalHeader(const JournalHeader &header)
{
    std::ostringstream os;
    os << kMagic << " v" << header.version << "\n"
       << "#kind=" << campaignKindName(header.kind) << "\n"
       << "#workload=" << header.workload << "\n"
       << "#precision=" << fp::precisionName(header.precision)
       << "\n"
       << "#scale=" << fmtShortest(header.scale) << "\n"
       << "#trials=" << header.config.trials << "\n"
       << "#seed=" << header.config.seed << "\n"
       << "#input-seed=" << header.config.inputSeed << "\n"
       << "#model=" << faultModelName(header.config.model) << "\n"
       << "#timeout-factor="
       << fmtShortest(header.config.timeoutFactor) << "\n"
       << "#operand-stages-only="
       << (header.config.operandStagesOnly ? 1 : 0) << "\n"
       << "#record-anatomy=" << (header.config.recordAnatomy ? 1 : 0)
       << "\n"
       << "#kind-filter=" << static_cast<int>(header.kindFilter)
       << "\n"
       << "#engines=" << formatEngines(header.engines) << "\n"
       << "#shard=" << header.shardIndex << "/" << header.shardCount
       << "\n"
       << "#golden=" << std::hex << header.goldenFingerprint
       << std::dec << "\n"
       << "#columns=index,outcome,max_rel,corrupted_fraction,"
          "severity,bit,field,retries\n";
    return os.str();
}

TrialRecord
makeTrialRecord(std::uint64_t index, const TrialOutcome &trial,
                int retries)
{
    TrialRecord rec;
    rec.index = index;
    rec.outcome = trial.outcome;
    rec.retries = retries;
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
    if (a.index != b.index)
        return "index";
    if (a.outcome != b.outcome)
        return "outcome";
    // %.17g round-trips, so journaled doubles compare exactly.
    if (a.maxRel != b.maxRel)
        return "max_rel";
    if (a.corruptedFraction != b.corruptedFraction)
        return "corrupted_fraction";
    if (a.severity != b.severity)
        return "severity";
    if (a.bit != b.bit)
        return "bit";
    if (a.field != b.field)
        return "field";
    if (a.retries != b.retries)
        return "retries";
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
    : path_(path), batch_(batch ? batch : 1)
{
    out_.open(path, truncate ? std::ios::out | std::ios::trunc
                             : std::ios::out | std::ios::app);
    if (!out_) {
        ok_ = false;
        return;
    }
    if (truncate) {
        out_ << formatJournalHeader(header);
        out_.flush();
        ok_ = static_cast<bool>(out_);
    }
}

JournalWriter::~JournalWriter() { flush(); }

void
JournalWriter::append(const TrialRecord &record)
{
    if (!ok_)
        return;
    out_ << record.index << ','
         << outcomeKindName(record.outcome) << ','
         << fmtDouble(record.maxRel) << ','
         << fmtDouble(record.corruptedFraction) << ','
         << record.severity << ',' << record.bit << ','
         << record.field << ',' << record.retries << '\n';
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
    out_.flush();
    pending_ = 0;
    if (!out_)
        ok_ = false;
}

std::optional<Journal>
readJournal(const std::string &path, std::string *error)
{
    const auto fail = [error](const std::string &why) {
        if (error)
            *error = why;
        return std::nullopt;
    };

    std::ifstream in(path);
    if (!in)
        return fail("cannot open '" + path + "'");

    std::string line;
    if (!std::getline(in, line) ||
        line.rfind(kMagic, 0) != 0) {
        return fail("'" + path + "' is not an mparch journal");
    }

    Journal journal;
    journal.validBytes = line.size() + 1;
    {
        // "#mparch-journal v<N>"
        const auto at = line.find(" v");
        journal.header.version =
            at == std::string::npos ? 0
                                    : std::atoi(line.c_str() + at + 2);
        if (journal.header.version != 1)
            return fail("unsupported journal version in '" + path +
                        "'");
    }

    // Header: "#key=value" lines until the columns line.
    std::map<std::string, std::string> kv;
    while (in.peek() == '#' && std::getline(in, line)) {
        journal.validBytes += line.size() + 1;
        const auto eq = line.find('=');
        if (eq == std::string::npos)
            continue;
        kv[line.substr(1, eq - 1)] = line.substr(eq + 1);
    }

    JournalHeader &h = journal.header;
    const auto get = [&kv](const char *key) -> std::string {
        const auto it = kv.find(key);
        return it == kv.end() ? std::string() : it->second;
    };

    const auto kind = parseCampaignKind(get("kind"));
    if (!kind)
        return fail("bad campaign kind in '" + path + "'");
    h.kind = *kind;
    h.workload = get("workload");
    if (h.workload.empty())
        return fail("missing workload name in '" + path + "'");
    const auto precision = fp::parsePrecision(get("precision"));
    if (!precision)
        return fail("bad precision in '" + path + "'");
    h.precision = *precision;
    h.scale = std::atof(get("scale").c_str());
    // Replay builds the workload at this scale; NaN fails both tests.
    if (!(h.scale > 0.0 && h.scale <= cli::kMaxScale))
        return fail("bad scale '" + get("scale") + "' in '" + path +
                    "': must be above 0 and at most " +
                    std::to_string(static_cast<int>(cli::kMaxScale)));
    h.config.trials =
        std::strtoull(get("trials").c_str(), nullptr, 10);
    h.config.seed = std::strtoull(get("seed").c_str(), nullptr, 10);
    h.config.inputSeed =
        std::strtoull(get("input-seed").c_str(), nullptr, 10);
    const auto model = parseFaultModel(get("model"));
    if (!model)
        return fail("bad fault model in '" + path + "'");
    h.config.model = *model;
    h.config.timeoutFactor =
        std::atof(get("timeout-factor").c_str());
    h.config.operandStagesOnly =
        get("operand-stages-only") == "1";
    h.config.recordAnatomy = get("record-anatomy") == "1";
    h.kindFilter =
        static_cast<fp::OpKind>(std::atoi(get("kind-filter").c_str()));
    const auto engines = parseEngines(get("engines"));
    if (!engines)
        return fail("bad engine list in '" + path + "'");
    h.engines = *engines;
    {
        const auto shard = split(get("shard"), '/');
        if (shard.size() != 2)
            return fail("bad shard spec in '" + path + "'");
        h.shardIndex =
            std::strtoull(shard[0].c_str(), nullptr, 10);
        h.shardCount =
            std::strtoull(shard[1].c_str(), nullptr, 10);
        if (h.shardCount == 0 || h.shardIndex >= h.shardCount)
            return fail("bad shard spec in '" + path + "'");
    }
    h.goldenFingerprint =
        std::strtoull(get("golden").c_str(), nullptr, 16);

    // Records. A torn final line (no trailing newline, or fewer than
    // 8 fields) is the batch that was being written when the process
    // died: drop it.
    while (std::getline(in, line)) {
        if (in.eof())
            break;  // no trailing newline: torn write, discard
        if (line.empty()) {
            journal.validBytes += 1;
            continue;
        }
        const auto fields = split(line, ',');
        if (fields.size() != 8)
            break;  // torn write: discard this and everything after
        const auto outcome = parseOutcome(fields[1]);
        if (!outcome)
            break;
        TrialRecord rec;
        rec.index = std::strtoull(fields[0].c_str(), nullptr, 10);
        rec.outcome = *outcome;
        rec.maxRel = std::strtod(fields[2].c_str(), nullptr);
        rec.corruptedFraction =
            std::strtod(fields[3].c_str(), nullptr);
        rec.severity = std::atoi(fields[4].c_str());
        rec.bit = std::atoi(fields[5].c_str());
        rec.field = std::atoi(fields[6].c_str());
        rec.retries = std::atoi(fields[7].c_str());
        journal.records.push_back(rec);
        journal.validBytes += line.size() + 1;
    }
    return journal;
}

} // namespace mparch::fault
