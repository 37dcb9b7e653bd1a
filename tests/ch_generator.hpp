// Random legal CH controllers for property and differential tests.
//
// A program is a passive activation enclosing a random active body
// built only from Table 1 "yes" rows over active arguments: seq,
// enc-early, enc-middle and seq-ov, bounded in depth, each leaf a fresh
// channel.  The same seed gives the same program.
#pragma once

#include <random>
#include <string>

#include "src/ch/ast.hpp"

namespace bb {

class ChGenerator {
 public:
  explicit ChGenerator(unsigned seed) : rng_(seed) {}

  ch::ExprPtr controller() {
    // Complete controller: passive activation enclosing a random body.
    return ch::rep(
        ch::enc_early(ch::ptop(ch::Activity::kPassive, "go"), body(2)));
  }

 private:
  ch::ExprPtr body(int depth) {
    std::uniform_int_distribution<int> pick(0, depth > 0 ? 4 : 0);
    switch (pick(rng_)) {
      case 0:
        return channel();
      case 1:  // sequencing of two active behaviours (A/A row)
        return ch::seq(body(depth - 1), body(depth - 1));
      case 2:  // enc-early A/A
        return ch::enc_early(channel(), body(depth - 1));
      case 3:  // enc-middle A/A (fork/join)
        return ch::enc_middle(channel(), body(depth - 1));
      case 4:  // seq-ov A/A
        return ch::seq_ov(channel(), body(depth - 1));
    }
    return channel();
  }

  ch::ExprPtr channel() {
    return ch::ptop(ch::Activity::kActive,
                    "c" + std::to_string(next_channel_++));
  }

  std::mt19937 rng_;
  int next_channel_ = 0;
};

}  // namespace bb
