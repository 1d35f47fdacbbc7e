#include "common/json.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"

namespace mparch::json {

std::string
escape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (unsigned char ch : text) {
        switch (ch) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (ch < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
                out += buf;
            } else {
                out += static_cast<char>(ch);
            }
        }
    }
    return out;
}

void
Writer::newline()
{
    os_ << '\n';
    for (std::size_t i = 0; i < stack_.size(); ++i)
        os_ << "  ";
}

void
Writer::beforeValue()
{
    if (stack_.empty())
        return;
    Level &level = stack_.back();
    if (level.isObject) {
        MPARCH_ASSERT(keyPending_,
                      "json: object member needs a key()");
        keyPending_ = false;
        return;
    }
    if (!level.first)
        os_ << ',';
    level.first = false;
    newline();
}

Writer &
Writer::key(const std::string &name)
{
    MPARCH_ASSERT(!stack_.empty() && stack_.back().isObject,
                  "json: key() outside an object");
    MPARCH_ASSERT(!keyPending_, "json: key() after key()");
    Level &level = stack_.back();
    if (!level.first)
        os_ << ',';
    level.first = false;
    newline();
    os_ << '"' << escape(name) << "\": ";
    keyPending_ = true;
    return *this;
}

Writer &
Writer::beginObject()
{
    beforeValue();
    os_ << '{';
    stack_.push_back({true, true});
    return *this;
}

Writer &
Writer::endObject()
{
    MPARCH_ASSERT(!stack_.empty() && stack_.back().isObject,
                  "json: endObject() without beginObject()");
    const bool empty = stack_.back().first;
    stack_.pop_back();
    if (!empty)
        newline();
    os_ << '}';
    return *this;
}

Writer &
Writer::beginArray()
{
    beforeValue();
    os_ << '[';
    stack_.push_back({false, true});
    return *this;
}

Writer &
Writer::endArray()
{
    MPARCH_ASSERT(!stack_.empty() && !stack_.back().isObject,
                  "json: endArray() without beginArray()");
    const bool empty = stack_.back().first;
    stack_.pop_back();
    if (!empty)
        newline();
    os_ << ']';
    return *this;
}

Writer &
Writer::value(const std::string &text)
{
    beforeValue();
    os_ << '"' << escape(text) << '"';
    return *this;
}

Writer &
Writer::value(const char *text)
{
    return value(std::string(text));
}

Writer &
Writer::value(double number)
{
    if (!std::isfinite(number))
        return null();
    beforeValue();
    // Shortest representation that round-trips a double.
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", number);
    double back = std::strtod(buf, nullptr);
    if (back == number) {
        for (int prec = 1; prec < 17; ++prec) {
            char tight[32];
            std::snprintf(tight, sizeof(tight), "%.*g", prec,
                          number);
            if (std::strtod(tight, nullptr) == number) {
                std::snprintf(buf, sizeof(buf), "%s", tight);
                break;
            }
        }
    }
    os_ << buf;
    return *this;
}

Writer &
Writer::value(std::int64_t number)
{
    beforeValue();
    os_ << number;
    return *this;
}

Writer &
Writer::value(std::uint64_t number)
{
    beforeValue();
    os_ << number;
    return *this;
}

Writer &
Writer::value(unsigned number)
{
    return value(static_cast<std::uint64_t>(number));
}

Writer &
Writer::value(int number)
{
    return value(static_cast<std::int64_t>(number));
}

Writer &
Writer::value(bool flag)
{
    beforeValue();
    os_ << (flag ? "true" : "false");
    return *this;
}

Writer &
Writer::null()
{
    beforeValue();
    os_ << "null";
    return *this;
}

} // namespace mparch::json
