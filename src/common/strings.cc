#include "common/strings.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace fairtopk {

std::vector<std::string> Split(std::string_view input, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = input.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(input.substr(start));
      break;
    }
    out.emplace_back(input.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string_view Trim(std::string_view input) {
  size_t begin = 0;
  size_t end = input.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(input[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(input[end - 1]))) {
    --end;
  }
  return input.substr(begin, end - begin);
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::optional<long long> ParseInt(std::string_view input) {
  input = Trim(input);
  if (input.empty()) return std::nullopt;
  long long value = 0;
  const char* first = input.data();
  const char* last = input.data() + input.size();
  auto [ptr, ec] = std::from_chars(first, last, value, 10);
  if (ec != std::errc() || ptr != last) return std::nullopt;
  return value;
}

std::optional<double> ParseDouble(std::string_view input) {
  input = Trim(input);
  if (input.empty()) return std::nullopt;
  // std::from_chars parses the common forms without a copy. It refuses
  // some text strtod takes (a leading '+', hex, literals out of range);
  // strtod on a bounded copy decides those, so the accepted set and
  // every value are strtod's.
  double value = 0.0;
  const char* last = input.data() + input.size();
  auto [ptr, ec] = std::from_chars(input.data(), last, value);
  if (ec != std::errc() || ptr != last) {
    std::string copy(input);
    char* end = nullptr;
    value = std::strtod(copy.c_str(), &end);
    if (end != copy.c_str() + copy.size()) return std::nullopt;
  }
  // "nan", "inf" and out-of-range literals are not numbers here, as in
  // the JSON parser: no order ranks them and no bucket holds them.
  if (!std::isfinite(value)) return std::nullopt;
  return value;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() &&
         s.substr(0, prefix.size()) == prefix;
}

std::string FormatDouble(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

}  // namespace fairtopk
