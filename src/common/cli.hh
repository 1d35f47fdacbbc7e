/**
 * @file
 * The one command-line parser every mparch binary uses.
 *
 * A binary declares what its command line may hold in a Spec, and
 * parse() returns the validated Args or rejects the line. Rejection
 * is uniform across the tree: an unknown option, a missing value, a
 * single-valued option given twice, a malformed number or a surplus
 * positional prints "<prog>: error: <why>" plus the usage text on
 * stderr and exits 2. Nothing is silently defaulted, so `--trails 50`
 * or `--trials abc` cannot run a different experiment than the one
 * asked for.
 *
 * Options take `--opt value` or `--opt=value`; switches take no
 * value. Counts are whole-string unsigned integers, decimal or
 * 0x-prefixed hex; reals are whole-string finite non-negative
 * decimals.
 */

#ifndef MPARCH_COMMON_CLI_HH
#define MPARCH_COMMON_CLI_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace mparch::cli {

/** The largest worker count a --jobs option may ask for. */
inline constexpr unsigned kMaxJobs = 1024;

/**
 * The largest workload scale a --scale option or a journal header
 * may hold. A workload's buffers and run time grow with its scale;
 * every scale the registry, the docs and the tests use is at most 1,
 * and 16 keeps one workload within megabytes, where a mistyped
 * exponent (1e9) would exhaust memory before the first trial.
 */
inline constexpr double kMaxScale = 16.0;

/** The largest --trials count. Campaigns reserve per-trial storage
 *  up front, so a mistyped count (1e12) must be refused, not left to
 *  fail that allocation; 10^6 is hundreds of the paper's campaigns. */
inline constexpr std::uint64_t kMaxTrials = 1'000'000;

/** What an option or positional argument holds. */
enum class Kind { Switch, Text, Count, Real };

/** Everything a command line may contain; option names are spelled
 *  without the leading "--". */
struct Spec
{
    /** Printed on every rejection. Declaring a "help" switch makes
     *  `--help`/`-h` print it on stdout and exit 0. */
    std::string usage = {};

    std::vector<std::string> text = {};        ///< --name value
    std::vector<std::string> counts = {};      ///< --name N
    std::vector<std::string> reals = {};       ///< --name X
    std::vector<std::string> switches = {};    ///< --name
    std::vector<std::string> repeatable = {};  ///< text, any number

    /** Kinds of the optional positional arguments, in order. */
    std::vector<Kind> positionals = {};

    /** Accept any number of further text positionals (file lists). */
    bool variadic = false;

    /** Kind of option @p name; nullopt when undeclared. */
    std::optional<Kind> kindOf(const std::string &name) const;
};

/** Strict unsigned parse: the whole string is decimal digits, or
 *  "0x" and hex digits; no sign, spaces or overflow. */
bool parseCount(const std::string &text, std::uint64_t *out);

/** Strict real parse: the whole string is a finite non-negative
 *  number; no sign, leading spaces, trailing junk, inf or nan. */
bool parseReal(const std::string &text, double *out);

/** A validated command line. Reading a name the Spec does not
 *  declare (with that kind) is a programming error (panic). */
class Args
{
  public:
    /** Validate @p args (no argv[0]) against @p spec; on rejection
     *  returns nullopt and sets @p error. Never exits. */
    static std::optional<Args> tryParse(
        const Spec &spec, const std::vector<std::string> &args,
        std::string *error);

    /** Switch given, or option given at least once. */
    bool has(const std::string &name) const;

    /** Value of an option, or @p fallback when absent. */
    std::string text(const std::string &name,
                     const std::string &fallback = "") const;
    std::uint64_t count(const std::string &name,
                        std::uint64_t fallback) const;
    double real(const std::string &name, double fallback) const;

    /** The --jobs count, 0 (all hardware threads) when absent; a
     *  request above kMaxJobs is rejected like a parse error. */
    unsigned jobs() const;

    /** The --scale value, @p fallback when absent. A value above
     *  kMaxScale is rejected like a parse error, and so is 0 unless
     *  @p fallback is 0 (where 0 spells "the default"). */
    double scale(double fallback) const;

    /** The --trials count, @p fallback when absent. A count above
     *  kMaxTrials is rejected like a parse error, and so is 0 unless
     *  @p fallback is 0 (where 0 spells "the default"). */
    std::uint64_t trials(std::uint64_t fallback) const;

    /** Every value of a repeatable option, in order. */
    const std::vector<std::string> &all(const std::string &name) const;

    const std::vector<std::string> &
    positionals() const
    {
        return positionals_;
    }

    /** Positional @p index, or @p fallback when not given. */
    std::string positional(std::size_t index,
                           const std::string &fallback) const;

    /** Reject after parsing (an unknown name, a missing required
     *  option): same output and exit code 2 as a parse error. */
    [[noreturn]] void fail(const std::string &why) const;

  private:
    friend Args parse(const Spec &spec, int argc, char **argv,
                      int first);

    /** The value list of @p name, checking its declared kind. */
    const std::vector<std::string> *values(const std::string &name,
                                           Kind kind) const;

    Spec spec_;
    std::string prog_;
    std::map<std::string, std::vector<std::string>> values_;
    std::vector<std::string> positionals_;
};

/** Parse argv[first..argc) against @p spec; on rejection print the
 *  error and usage on stderr and exit 2. */
Args parse(const Spec &spec, int argc, char **argv, int first = 1);

/** Print "<prog>: error: <why>" and @p usage on stderr; exit 2. */
[[noreturn]] void usageError(const std::string &prog,
                             const std::string &usage,
                             const std::string &why);

} // namespace mparch::cli

#endif // MPARCH_COMMON_CLI_HH
