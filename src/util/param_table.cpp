#include "util/param_table.hpp"

#include <charconv>

namespace sskel {

void set_range_error(std::string& error, const char* key, double lo,
                     double hi, double value) {
  const auto number = [](double v) {
    char text[32];
    return std::string(text, std::to_chars(text, text + sizeof(text), v).ptr);
  };
  error = std::string(key) + " must be in [" + number(lo) + ", " +
          number(hi) + "], not " + number(value);
}

void set_error(std::string& error, const char* message) { error = message; }

}  // namespace sskel
