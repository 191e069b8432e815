// Error handling and contract machinery for the bayes-srm library.
//
// Conventions (C++ Core Guidelines E.2, I.5/I.7):
//  * Precondition violations on the public API throw srm::InvalidArgument
//    via SRM_EXPECTS — callers can recover and the message names the
//    violated condition.
//  * Internal invariants use SRM_ENSURES/SRM_ASSERT which throw
//    srm::LogicError; a failure indicates a library bug, not user error.
//  * Numerical failures (non-convergence, domain errors discovered at
//    run time) throw srm::NumericError.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace srm {

/// Base class of every exception thrown by this library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A caller violated a documented precondition of a public API.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// An internal invariant failed — indicates a bug inside the library.
class LogicError : public Error {
 public:
  explicit LogicError(const std::string& what) : Error(what) {}
};

/// A numerical routine failed to converge or left its domain.
class NumericError : public Error {
 public:
  explicit NumericError(const std::string& what) : Error(what) {}
};

/// Check of user input (CLI flags and files, serve requests): throws
/// InvalidArgument carrying just `message`. SRM_EXPECTS is for contract
/// violations; it adds the condition text and source location, which a
/// user should never see. A literal message costs no allocation unless the
/// check fails.
inline void require_input(bool ok, std::string_view message) {
  if (!ok) throw InvalidArgument(std::string(message));
}

namespace detail {
// Each thrower receives the name of the macro that fired so the exception
// message attributes the failure to the check the source actually used
// (SRM_ASSERT must not masquerade as SRM_ENSURES).
[[noreturn]] void throw_invalid_argument(const char* macro,
                                         const char* condition,
                                         const char* file, int line,
                                         const std::string& message);
[[noreturn]] void throw_logic_error(const char* macro, const char* condition,
                                    const char* file, int line,
                                    const std::string& message);
}  // namespace detail

}  // namespace srm

/// Precondition check on a public API. Throws srm::InvalidArgument.
#define SRM_EXPECTS(cond, message)                                          \
  do {                                                                      \
    if (!(cond)) {                                                          \
      ::srm::detail::throw_invalid_argument("SRM_EXPECTS", #cond, __FILE__, \
                                            __LINE__, (message));           \
    }                                                                       \
  } while (false)

/// Postcondition / invariant check. Throws srm::LogicError.
#define SRM_ENSURES(cond, message)                                          \
  do {                                                                      \
    if (!(cond)) {                                                          \
      ::srm::detail::throw_logic_error("SRM_ENSURES", #cond, __FILE__,      \
                                       __LINE__, (message));                \
    }                                                                       \
  } while (false)

/// Mid-function invariant check. Same contract as SRM_ENSURES (throws
/// srm::LogicError) but reports itself as SRM_ASSERT in the message.
#define SRM_ASSERT(cond, message)                                           \
  do {                                                                      \
    if (!(cond)) {                                                          \
      ::srm::detail::throw_logic_error("SRM_ASSERT", #cond, __FILE__,       \
                                       __LINE__, (message));                \
    }                                                                       \
  } while (false)
