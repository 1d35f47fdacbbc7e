#include "common/cli.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iostream>

#include "common/logging.hh"

namespace mparch::cli {

namespace {

bool
contains(const std::vector<std::string> &names, const std::string &name)
{
    return std::find(names.begin(), names.end(), name) != names.end();
}

/** Empty when @p text is a well-formed @p kind value, else the noun
 *  for the error message. */
std::string
malformed(Kind kind, const std::string &text)
{
    std::uint64_t count = 0;
    double real = 0.0;
    if (kind == Kind::Count && !parseCount(text, &count))
        return "a count";
    if (kind == Kind::Real && !parseReal(text, &real))
        return "a non-negative number";
    return "";
}

} // namespace

std::optional<Kind>
Spec::kindOf(const std::string &name) const
{
    if (contains(text, name) || contains(repeatable, name))
        return Kind::Text;
    if (contains(counts, name))
        return Kind::Count;
    if (contains(reals, name))
        return Kind::Real;
    if (contains(switches, name))
        return Kind::Switch;
    return std::nullopt;
}

bool
parseCount(const std::string &text, std::uint64_t *out)
{
    const bool hex = text.size() > 2 && text[0] == '0' &&
                     (text[1] == 'x' || text[1] == 'X');
    const std::string digits = hex ? text.substr(2) : text;
    if (digits.empty() ||
        digits.find_first_not_of(hex ? "0123456789abcdefABCDEF"
                                     : "0123456789") !=
            std::string::npos)
        return false;
    errno = 0;
    const unsigned long long v =
        std::strtoull(digits.c_str(), nullptr, hex ? 16 : 10);
    if (errno != 0)
        return false;
    *out = v;
    return true;
}

bool
parseReal(const std::string &text, double *out)
{
    // strtod would skip leading spaces and accept a sign.
    if (text.empty() ||
        !(std::isdigit(static_cast<unsigned char>(text[0])) ||
          text[0] == '.'))
        return false;
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (errno != 0 || end != text.c_str() + text.size() ||
        !std::isfinite(v))
        return false;
    *out = v;
    return true;
}

std::optional<Args>
Args::tryParse(const Spec &spec, const std::vector<std::string> &args,
               std::string *error)
{
    Args out;
    out.spec_ = spec;
    const auto reject = [&](const std::string &why) {
        *error = why;
        return std::nullopt;
    };

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        std::string label, value = arg;
        Kind kind = Kind::Text;
        std::vector<std::string> *into = &out.positionals_;
        if (arg.empty() || arg[0] != '-') {
            const std::size_t at = out.positionals_.size();
            if (at >= spec.positionals.size() && !spec.variadic)
                return reject("unexpected argument '" + arg + "'");
            if (at < spec.positionals.size())
                kind = spec.positionals[at];
            label = "argument " + std::to_string(at + 1);
        } else {
            const std::string flag = arg == "-h" ? "--help" : arg;
            const auto eq = flag.find('=');
            const std::string name =
                flag.rfind("--", 0) == 0 ? flag.substr(2, eq - 2) : "";
            const std::optional<Kind> declared = spec.kindOf(name);
            if (name.empty() || !declared)
                return reject("unknown option '" + arg + "'");
            kind = *declared;
            label = "--" + name;
            value.clear();
            if (kind == Kind::Switch) {
                if (eq != std::string::npos)
                    return reject(label + " takes no value");
            } else if (eq != std::string::npos) {
                value = flag.substr(eq + 1);
            } else if (i + 1 < args.size() &&
                       args[i + 1].rfind("--", 0) != 0) {
                value = args[++i];
            } else {
                return reject(label + " needs a value");
            }
            into = &out.values_[name];
            if (!into->empty() && !contains(spec.repeatable, name))
                return reject(label + " given more than once");
        }
        const std::string bad = malformed(kind, value);
        if (!bad.empty())
            return reject(label + " must be " + bad + ", got '" + value +
                          "'");
        into->push_back(value);
    }
    return out;
}

const std::vector<std::string> *
Args::values(const std::string &name, Kind kind) const
{
    if (spec_.kindOf(name) != kind)
        panic("cli: --", name, " is not declared with this kind");
    const auto it = values_.find(name);
    return it == values_.end() ? nullptr : &it->second;
}

bool
Args::has(const std::string &name) const
{
    if (!spec_.kindOf(name))
        panic("cli: --", name, " is not declared");
    return values_.count(name) != 0;
}

std::string
Args::text(const std::string &name, const std::string &fallback) const
{
    const auto *v = values(name, Kind::Text);
    return v ? v->back() : fallback;
}

std::uint64_t
Args::count(const std::string &name, std::uint64_t fallback) const
{
    if (const auto *v = values(name, Kind::Count))
        parseCount(v->back(), &fallback);
    return fallback;
}

unsigned
Args::jobs() const
{
    const std::uint64_t n = count("jobs", 0);
    if (n > kMaxJobs) {
        fail("--jobs " + std::to_string(n) + " is above the limit of " +
             std::to_string(kMaxJobs));
    }
    return static_cast<unsigned>(n);
}

double
Args::scale(double fallback) const
{
    const double s = real("scale", fallback);
    if (s > kMaxScale) {
        fail("--scale " + values("scale", Kind::Real)->back() +
             " is above the limit of " +
             std::to_string(static_cast<int>(kMaxScale)));
    }
    if (s == 0.0 && fallback != 0.0)
        fail("--scale must be greater than 0");
    return s;
}

std::uint64_t
Args::trials(std::uint64_t fallback) const
{
    const std::uint64_t n = count("trials", fallback);
    if (n > kMaxTrials) {
        fail("--trials " + std::to_string(n) + " is above the limit of " +
             std::to_string(kMaxTrials));
    }
    if (n == 0 && fallback != 0)
        fail("--trials must be at least 1");
    return n;
}

double
Args::real(const std::string &name, double fallback) const
{
    if (const auto *v = values(name, Kind::Real))
        parseReal(v->back(), &fallback);
    return fallback;
}

const std::vector<std::string> &
Args::all(const std::string &name) const
{
    static const std::vector<std::string> none;
    if (!contains(spec_.repeatable, name))
        panic("cli: --", name, " is not repeatable");
    const auto *v = values(name, Kind::Text);
    return v ? *v : none;
}

std::string
Args::positional(std::size_t index, const std::string &fallback) const
{
    return index < positionals_.size() ? positionals_[index]
                                       : fallback;
}

std::uint64_t
Args::positionalCount(std::size_t index, std::uint64_t fallback) const
{
    if (index >= spec_.positionals.size() ||
        spec_.positionals[index] != Kind::Count)
        panic("cli: positional ", index, " is not a count");
    if (index < positionals_.size())
        parseCount(positionals_[index], &fallback);
    return fallback;
}

void
Args::fail(const std::string &why) const
{
    usageError(prog_, spec_.usage, why);
}

Args
parse(const Spec &spec, int argc, char **argv, int first)
{
    const std::vector<std::string> args(argv + std::min(first, argc),
                                        argv + argc);
    std::string error;
    std::optional<Args> parsed = Args::tryParse(spec, args, &error);
    if (!parsed)
        usageError(argv[0], spec.usage, error);
    parsed->prog_ = argv[0];
    if (parsed->values_.count("help") != 0) {
        std::cout << spec.usage;
        std::exit(0);
    }
    return std::move(*parsed);
}

void
usageError(const std::string &prog, const std::string &usage,
           const std::string &why)
{
    std::cerr << prog << ": error: " << why << "\n" << usage;
    std::exit(2);
}

} // namespace mparch::cli
