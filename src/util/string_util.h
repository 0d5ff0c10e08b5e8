// Small string helpers shared by the CLI parser and table printers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace autodml::util {

std::vector<std::string> split(std::string_view s, char delim);
std::string join(const std::vector<std::string>& parts, std::string_view sep);
bool starts_with(std::string_view s, std::string_view prefix);
std::string to_lower(std::string_view s);

/// Right-pad to `width` with spaces (no truncation).
std::string pad_right(std::string_view s, std::size_t width);

/// Format a double for display tables.
std::string fmt(double v, int precision = 4);

/// Render rows as an aligned text table with a header rule.
std::string render_table(const std::vector<std::string>& header,
                         const std::vector<std::vector<std::string>>& rows);

}  // namespace autodml::util
