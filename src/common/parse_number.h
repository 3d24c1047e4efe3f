// The strict parser behind every number a program reads from its command
// line or from a chaos repro string. ParseNumber takes the whole string
// as one decimal number of the output's type or fails without touching
// the output: no leading whitespace, no trailing characters, no hex, no
// inf or NaN, no sign on an unsigned value, and no value outside the
// type's range (ERANGE, which for a double also means underflow to a
// subnormal or to zero). The overloads that take a Range also refuse a
// number outside it. Header-only, so nothing links it that does not call
// it.
#ifndef LIGHTTR_COMMON_PARSE_NUMBER_H_
#define LIGHTTR_COMMON_PARSE_NUMBER_H_

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <string>

namespace lighttr {

/// Digits only: "-1" is an error, never 2^64 - 1.
[[nodiscard]] inline bool ParseNumber(const std::string& text, uint64_t* out) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  errno = 0;
  const uint64_t value = std::strtoull(text.c_str(), nullptr, 10);
  if (errno == ERANGE) return false;
  *out = value;
  return true;
}

/// An optional sign, then digits.
[[nodiscard]] inline bool ParseNumber(const std::string& text, int64_t* out) {
  const size_t sign =
      !text.empty() && (text[0] == '+' || text[0] == '-') ? 1 : 0;
  if (text.size() == sign ||
      text.find_first_not_of("0123456789", sign) != std::string::npos) {
    return false;
  }
  errno = 0;
  const int64_t value = std::strtoll(text.c_str(), nullptr, 10);
  if (errno == ERANGE) return false;
  *out = value;
  return true;
}

/// A decimal fraction with an optional sign and exponent ("0.25", "+5",
/// ".5", "1e-3"). It is finite: the letters of inf and nan are refused,
/// and an overflow is ERANGE.
[[nodiscard]] inline bool ParseNumber(const std::string& text, double* out) {
  if (text.empty() ||
      text.find_first_not_of("0123456789+-.eE") != std::string::npos) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (errno == ERANGE || end != text.c_str() + text.size()) return false;
  *out = value;
  return true;
}

/// A number in [min, max], or in (min, max] when `open_min` is set. A
/// rate in [0, 1) is Range{0, std::nextafter(1.0, 0.0)}. No range holds
/// NaN.
struct Range {
  double min;
  double max;
  bool open_min = false;

  bool Holds(double value) const {
    return (open_min ? value > min : value >= min) && value <= max;
  }
};

/// An int in `range`, whose bounds lie within int's. The text is read as
/// an int64 first, so a value past INT_MAX is refused, never wrapped.
[[nodiscard]] inline bool ParseNumber(const std::string& text, int* out,
                                      Range range) {
  int64_t value = 0;
  if (!ParseNumber(text, &value) || !range.Holds(static_cast<double>(value))) {
    return false;
  }
  *out = static_cast<int>(value);
  return true;
}

/// A double in `range`.
[[nodiscard]] inline bool ParseNumber(const std::string& text, double* out,
                                      Range range) {
  double value = 0.0;
  if (!ParseNumber(text, &value) || !range.Holds(value)) return false;
  *out = value;
  return true;
}

}  // namespace lighttr

#endif  // LIGHTTR_COMMON_PARSE_NUMBER_H_
