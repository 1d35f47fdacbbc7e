/**
 * @file
 * Append-only trial journal for crash-safe injection campaigns.
 *
 * A journal is a plain-text file with a self-describing header
 * (campaign configuration, workload identity, golden-run fingerprint)
 * followed by one CSV record per completed trial. The writer buffers
 * records and flushes in configurable batches, so a killed process
 * loses at most one batch; the reader tolerates a torn final line
 * (the record being written when the process died is discarded).
 *
 * Because trials draw from a counter-based RNG (trialRng(seed, i)),
 * a journal plus its header is sufficient to re-execute any recorded
 * trial bit-identically — see fault/supervisor.hh for resume and
 * replay, and docs/campaigns.md for the format specification.
 */

#ifndef MPARCH_FAULT_JOURNAL_HH
#define MPARCH_FAULT_JOURNAL_HH

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "fault/campaign.hh"

namespace mparch::fault {

/** Name of a CampaignKind ("memory" / "datapath" / "persistent"). */
const char *campaignKindName(CampaignKind kind);

/** Parse a CampaignKind name; nullopt on unknown text. */
std::optional<CampaignKind> parseCampaignKind(const std::string &text);

/**
 * Everything needed to validate a resume and to re-create the
 * campaign for replay: the full CampaignConfig, the workload's
 * identity, and a fingerprint of the golden run (so a journal can
 * never silently be resumed against different data).
 */
struct JournalHeader
{
    /** Format version; bumped on incompatible layout changes. */
    int version = 1;

    CampaignKind kind = CampaignKind::Memory;

    /** Workload identity: name / precision / factory scale knob. */
    std::string workload;
    fp::Precision precision = fp::Precision::Single;
    double scale = 1.0;

    CampaignConfig config;

    /** Datapath campaigns: restricted kind (NumKinds = any). */
    fp::OpKind kindFilter = fp::OpKind::NumKinds;

    /** Persistent campaigns: the engine allocations struck. */
    std::vector<EngineAllocation> engines;

    /** Shard this journal belongs to (trial i is owned by shard
     *  i % shardCount). */
    std::uint64_t shardCount = 1;
    std::uint64_t shardIndex = 0;

    /** FNV-1a fingerprint of the golden output bits and tick count. */
    std::uint64_t goldenFingerprint = 0;

    /**
     * Compare against another header (typically: file vs freshly
     * configured campaign). Returns an empty string when compatible,
     * otherwise a human-readable description of the first mismatch.
     */
    std::string mismatch(const JournalHeader &other) const;
};

/** Fingerprint a golden run (FNV-1a over output bits and ticks). */
std::uint64_t goldenFingerprint(const GoldenRun &golden);

/** One journaled trial. */
struct TrialRecord
{
    std::uint64_t index = 0;
    OutcomeKind outcome = OutcomeKind::Masked;

    /** SDC payload (zero unless outcome == Sdc). */
    double maxRel = 0.0;
    double corruptedFraction = 0.0;
    int severity = -1;  ///< workloads::SdcSeverity, -1 = none

    /** Anatomy payload (-1 = not recorded). */
    int bit = -1;
    int field = -1;

    /** Retries spent before this attempt succeeded. */
    int retries = 0;
};

/** Build the journal record for one completed trial. */
TrialRecord makeTrialRecord(std::uint64_t index,
                            const TrialOutcome &trial, int retries);

/**
 * Name of the first journal column (as in `#columns=`) whose value
 * differs between @p a and @p b, compared exactly; empty when every
 * column agrees.
 */
std::string firstDifferingColumn(const TrialRecord &a,
                                 const TrialRecord &b);

/** Fold a journaled record back into campaign tallies (resume). */
void accumulate(CampaignResult &result, const TrialRecord &record);

/**
 * Batched append-only journal writer.
 *
 * Create with `truncate = true` to start a fresh journal (writes the
 * header), or `truncate = false` to append to an existing one after
 * the caller validated its header. Records are buffered and written
 * + flushed every `batch` appends (and on close/destruction).
 *
 * All I/O errors are sticky: once ok() turns false every later
 * append is a no-op, so campaigns degrade to in-memory accounting
 * instead of crashing mid-run.
 */
class JournalWriter
{
  public:
    JournalWriter(const std::string &path,
                  const JournalHeader &header, std::uint64_t batch,
                  bool truncate);
    ~JournalWriter();

    JournalWriter(const JournalWriter &) = delete;
    JournalWriter &operator=(const JournalWriter &) = delete;

    /** Buffer one record; flushes when the batch fills. */
    void append(const TrialRecord &record);

    /** Write buffered records to disk and fsync-level flush. */
    void flush();

    /** False after any I/O error (journalling is then disabled). */
    bool ok() const { return ok_; }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
    std::ofstream out_;
    std::uint64_t batch_;
    std::uint64_t pending_ = 0;
    bool ok_ = true;
};

/** A fully parsed journal. */
struct Journal
{
    JournalHeader header;
    std::vector<TrialRecord> records;

    /** Byte length of the valid prefix (header + parsed records).
     *  Anything beyond it is a torn or corrupt tail; truncate to
     *  this length before appending more records. */
    std::uint64_t validBytes = 0;
};

/**
 * Read a journal from disk.
 *
 * A torn final line (crash mid-append) is silently discarded;
 * structurally invalid headers return nullopt with a description in
 * @p error.
 */
std::optional<Journal> readJournal(const std::string &path,
                                   std::string *error = nullptr);

/** Serialise a header to its textual journal form (testing aid). */
std::string formatJournalHeader(const JournalHeader &header);

} // namespace mparch::fault

#endif // MPARCH_FAULT_JOURNAL_HH
