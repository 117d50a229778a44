/**
 * @file
 * Deterministic byte mutations shared by the fuzz-style tests. A
 * SplitMix64 Rng drives every choice, so a failing case reproduces
 * from its seed and round number.
 */
#ifndef CIMMLC_TESTS_FUZZ_MUTATE_H
#define CIMMLC_TESTS_FUZZ_MUTATE_H

#include <iterator>
#include <string>
#include <vector>

#include "common/rng.h"

namespace cimmlc {

/** One deterministic mutation: overwrite 1-4 bytes, truncate, delete
 * a chunk, or duplicate a chunk elsewhere; always returns a non-empty
 * string. */
inline std::string
mutate(const std::string &seed, Rng &rng)
{
    std::string text = seed;
    switch (rng.uniformInt(0, 3)) {
      case 0: { // overwrite random bytes with random values
        const int edits = static_cast<int>(rng.uniformInt(1, 4));
        for (int i = 0; i < edits; ++i) {
            const std::size_t at = static_cast<std::size_t>(
                rng.uniformInt(0,
                               static_cast<std::int64_t>(text.size()) - 1));
            text[at] = static_cast<char>(rng.uniformInt(0, 255));
        }
        break;
      }
      case 1: { // truncate
        const std::size_t at = static_cast<std::size_t>(rng.uniformInt(
            1, static_cast<std::int64_t>(text.size()) - 1));
        text.resize(at);
        break;
      }
      case 2: { // delete a chunk
        const std::size_t at = static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(text.size()) - 2));
        const std::size_t len = static_cast<std::size_t>(rng.uniformInt(
            1, static_cast<std::int64_t>(text.size() - at) - 1));
        text.erase(at, len);
        break;
      }
      default: { // duplicate a chunk somewhere else
        const std::size_t at = static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(text.size()) - 2));
        const std::size_t len = static_cast<std::size_t>(
            rng.uniformInt(1, 16));
        const std::size_t to = static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(text.size()) - 1));
        text.insert(to, text.substr(at, len));
        break;
      }
    }
    if (text.empty())
        text = "x";
    return text;
}

/**
 * One deterministic value mutation: replaces the number (or name) that
 * holds a random digit of @p seed with an edge value — a sign flip, a
 * fraction, the edges of int and int64, or past them — so the document
 * stays well-formed kvjson but holds a value its reader must check.
 * Returns @p seed unchanged when it holds no digit.
 */
inline std::string
mutateNumber(const std::string &seed, Rng &rng)
{
    static const char *const kEdges[] = {
        "0", "-1", "1", "3", "0.5", "2.5", "255", "-2147483648",
        "2147483647", "2147483648", "-2147483649", "4294967296",
        "4294967297", "4611686018427387904", "9223372036854774784",
        "9223372036854775808", "-9223372036854775808", "1e300"};
    std::vector<std::size_t> digits;
    for (std::size_t i = 0; i < seed.size(); ++i)
        if (seed[i] >= '0' && seed[i] <= '9')
            digits.push_back(i);
    if (digits.empty())
        return seed;
    const auto in_number = [&seed](std::size_t i) {
        const char c = seed[i];
        return (c >= '0' && c <= '9') || c == '.' || c == '-' || c == '+'
               || c == 'e' || c == 'E';
    };
    std::size_t begin = digits[static_cast<std::size_t>(rng.uniformInt(
        0, static_cast<std::int64_t>(digits.size()) - 1))];
    std::size_t end = begin;
    while (begin > 0 && in_number(begin - 1))
        --begin;
    while (end < seed.size() && in_number(end))
        ++end;
    const char *edge = kEdges[rng.uniformInt(
        0, static_cast<std::int64_t>(std::size(kEdges)) - 1)];
    return seed.substr(0, begin) + edge + seed.substr(end);
}

} // namespace cimmlc

#endif // CIMMLC_TESTS_FUZZ_MUTATE_H
