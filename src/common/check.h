// Invariant checking.
//
// MRON_CHECK aborts with a message on violated invariants; it stays on in
// release builds because a simulator that silently continues after a broken
// invariant produces plausible-looking wrong numbers.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace mron {

/// Thrown on violated preconditions/invariants.
class CheckError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Thrown when input from outside the program (a flag, a cluster spec, a
/// fault plan) is malformed or out of range. It is a CheckError, so code
/// that catches every rejected precondition still does; front ends catch it
/// first to report a user error rather than an internal fault. what() is
/// the bare message, with no source location.
class InputError : public CheckError {
 public:
  using CheckError::CheckError;
};

[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line, const std::string& msg) {
  std::ostringstream os;
  os << "MRON_CHECK failed: " << expr << " at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw CheckError(os.str());
}

}  // namespace mron

#define MRON_CHECK(expr)                                        \
  do {                                                          \
    if (!(expr)) ::mron::check_failed(#expr, __FILE__, __LINE__, ""); \
  } while (false)

/// Rejects bad outside input with an InputError carrying `msg`.
#define MRON_INPUT_CHECK(expr, msg)                              \
  do {                                                           \
    if (!(expr)) {                                               \
      std::ostringstream mron_check_os;                          \
      mron_check_os << msg;                                      \
      throw ::mron::InputError(mron_check_os.str());             \
    }                                                            \
  } while (false)

#define MRON_CHECK_MSG(expr, msg)                                \
  do {                                                           \
    if (!(expr)) {                                               \
      std::ostringstream mron_check_os;                          \
      mron_check_os << msg;                                      \
      ::mron::check_failed(#expr, __FILE__, __LINE__, mron_check_os.str()); \
    }                                                            \
  } while (false)
