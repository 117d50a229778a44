/**
 * @file
 * Deterministic byte mutations shared by the fuzz-style tests. A
 * SplitMix64 Rng drives every choice, so a failing case reproduces
 * from its seed and round number.
 */
#ifndef CIMMLC_TESTS_FUZZ_MUTATE_H
#define CIMMLC_TESTS_FUZZ_MUTATE_H

#include <string>

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

} // namespace cimmlc

#endif // CIMMLC_TESTS_FUZZ_MUTATE_H
