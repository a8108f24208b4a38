#ifndef NIMBLE_COMMON_STRINGS_H_
#define NIMBLE_COMMON_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace nimble {

/// Splits `input` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view input, char sep);

/// Splits on runs of ASCII whitespace, dropping empty fields.
std::vector<std::string> SplitWhitespace(std::string_view input);

/// Removes leading and trailing ASCII whitespace.
std::string Trim(std::string_view input);

/// ASCII lower-casing.
std::string ToLower(std::string_view input);

/// ASCII upper-casing.
std::string ToUpper(std::string_view input);

/// Joins `parts` with `sep` between elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Replaces every occurrence of `from` (non-empty) with `to`.
std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to);

/// SQL LIKE pattern matching ('%' = any run, '_' = any one char),
/// case-sensitive. Shared by the source SQL executor and the mediator's
/// conditions, so both sides of pushdown match identically.
bool LikeMatch(std::string_view text, std::string_view pattern);

}  // namespace nimble

#endif  // NIMBLE_COMMON_STRINGS_H_
