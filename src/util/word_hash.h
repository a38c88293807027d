// Word-wise structural hash for in-process determinism fingerprints (span
// streams, metrics tables, displacement histories).
//
// Each step folds one 8-byte word with an xor, a multiply by an odd
// constant and an xor-shift. For a fixed input word every step is a
// bijection of the state, so two word streams of equal length that differ
// in exactly one word always hash differently. Not a cryptographic hash
// and not stable across processes when callers feed interned ids.
#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>

namespace nees::util {

class WordHash {
 public:
  void Word(std::uint64_t word) {
    h_ ^= word;
    h_ *= 0x9E3779B97F4A7C15ULL;
    h_ ^= h_ >> 29;
  }

  /// Length, then the bytes in 8-byte words (the last one zero-padded).
  void String(std::string_view s) {
    Word(s.size());
    std::size_t i = 0;
    for (; i + 8 <= s.size(); i += 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, s.data() + i, 8);
      Word(word);
    }
    if (i < s.size()) {
      std::uint64_t word = 0;
      std::memcpy(&word, s.data() + i, s.size() - i);
      Word(word);
    }
  }

  void Double(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    Word(bits);
  }

  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

}  // namespace nees::util
