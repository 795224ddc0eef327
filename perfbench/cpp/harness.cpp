#include "harness.hpp"

namespace perfbench {

namespace {
/// Failure lines kept for the report; the counts keep going past it.
constexpr std::size_t kMaxMessages = 32;
}  // namespace

void OpLedger::fail(const std::string& op, const std::string& why,
                    Cause cause, std::uint64_t n) {
  failed_ += n;
  if (cause == Cause::kCheck) correct_ = false;
  if (messages_.size() < kMaxMessages) {
    const char* kind = cause == Cause::kCheck       ? "check failed"
                       : cause == Cause::kException ? "threw"
                                                    : "over budget";
    messages_.push_back(op + ": " + kind + ": " + why);
  }
}

bool OpLedger::check(const std::string& op,
                     const std::vector<std::string>& violations,
                     std::uint64_t ops) {
  if (violations.empty()) return true;
  std::string why = violations.front();
  if (violations.size() > 1) {
    why += " (+" + std::to_string(violations.size() - 1) + " more)";
  }
  fail(op, why, Cause::kCheck, ops);
  return false;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
