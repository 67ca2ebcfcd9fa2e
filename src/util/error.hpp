#pragma once
// Typed error taxonomy for the public API boundary (DESIGN.md §10.3).
//
// Everything powder can refuse to do falls into one of four categories:
//
//   kInput       — the caller handed us something unusable: malformed BLIF,
//                  options that fail validation, a resume log recorded for a
//                  different netlist or configuration.
//   kResource    — the process ran out of something it cannot degrade
//                  around (allocation failure outside a guarded path).
//   kProofEngine — a permissibility engine failed in a way that is neither
//                  "testable" nor "untestable" (the optimizer settles such
//                  a proof as a sound kAborted rejection).
//   kIo          — the filesystem failed us: unreadable input, torn
//                  checkpoint, failed atomic rename.
//
// Error derives from CheckError so every existing catch site (and the
// invariant-checking machinery in util/check.hpp) keeps working; new code
// should catch powder::Error first and dispatch on category().

#include <string>

#include "util/check.hpp"

namespace powder {

enum class ErrorCategory : int {
  kInput = 0,
  kResource,
  kProofEngine,
  kIo,
};

inline const char* error_category_name(ErrorCategory c) {
  switch (c) {
    case ErrorCategory::kInput: return "input";
    case ErrorCategory::kResource: return "resource";
    case ErrorCategory::kProofEngine: return "proof-engine";
    case ErrorCategory::kIo: return "io";
  }
  return "unknown";
}

class Error : public CheckError {
 public:
  Error(ErrorCategory category, const std::string& what)
      : CheckError(std::string(error_category_name(category)) + " error: " +
                   what),
        category_(category) {}

  ErrorCategory category() const { return category_; }

  static Error input(const std::string& what) {
    return Error(ErrorCategory::kInput, what);
  }
  static Error resource(const std::string& what) {
    return Error(ErrorCategory::kResource, what);
  }
  static Error proof_engine(const std::string& what) {
    return Error(ErrorCategory::kProofEngine, what);
  }
  static Error io(const std::string& what) {
    return Error(ErrorCategory::kIo, what);
  }

 private:
  ErrorCategory category_;
};

}  // namespace powder
