/**
 * @file
 * Append-only trial journal for crash-safe injection campaigns.
 *
 * A journal is a plain-text file with a self-describing header
 * (campaign configuration, workload identity, golden-run fingerprint)
 * followed by one CSV record per completed trial. The writer buffers
 * records and flushes in configurable batches, so a killed process
 * loses at most one batch; the reader discards a torn final line (the
 * record being written when the process died) and refuses the rest.
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
#include <string_view>
#include <vector>

#include "fault/campaign.hh"

namespace mparch::fault {

/** Name of a CampaignKind ("memory" / "datapath" / "persistent"). */
const char *campaignKindName(CampaignKind kind);

/** Parse a CampaignKind name; nullopt on unknown text. */
std::optional<CampaignKind> parseCampaignKind(std::string_view text);

/**
 * Everything needed to validate a resume and to re-create the
 * campaign for replay: the full CampaignConfig, the workload's
 * identity, and a fingerprint of the golden run (so a journal can
 * never silently be resumed against different data).
 */
struct JournalHeader
{
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

    /** FNV-1a fingerprint of the golden output bits and tick count. */
    std::uint64_t goldenFingerprint = 0;

    /**
     * Compare the written rows with another header's (typically: file
     * vs freshly configured campaign). Returns an empty string when
     * they agree, otherwise the first differing key and both values.
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
};

/** Build the journal record for one completed trial. */
TrialRecord makeTrialRecord(std::uint64_t index,
                            const TrialOutcome &trial);

/**
 * Name of the first journal column (as in `#columns=`) whose written
 * value differs between @p a and @p b (exact: doubles are written as
 * %.17g); empty when every column agrees.
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

  private:
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
 * A torn final line (no newline: a crash mid-append) is silently
 * discarded; anything else that is not v1 returns nullopt with the
 * key or column it refuses in @p error (docs/campaigns.md).
 */
std::optional<Journal> readJournal(const std::string &path,
                                   std::string *error = nullptr);

} // namespace mparch::fault

#endif // MPARCH_FAULT_JOURNAL_HH
