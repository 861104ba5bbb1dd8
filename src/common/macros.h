#pragma once

/// \file macros.h
/// \brief Control-flow helpers for Status/Result propagation, plus the
/// Clang thread-safety annotation macros used by `common/mutex.h`.

#include <cstdlib>
#include <iostream>

#include "common/status.h"

/// \name Thread-safety annotations
///
/// Wrappers over Clang's `-Wthread-safety` attributes (see
/// https://clang.llvm.org/docs/ThreadSafetyAnalysis.html).  Under Clang
/// with the `WQE_THREAD_SAFETY` CMake option (on by default) the locking
/// contracts written with these — which mutex guards which field, which
/// functions must (or must not) hold which lock — become compile errors
/// when violated.  On GCC and other toolchains they expand to nothing,
/// so annotated code builds everywhere.
///
/// Usage: guard fields with `WQE_GUARDED_BY(mu_)`, annotate members that
/// are called with a lock held with `WQE_REQUIRES(mu_)`, and members
/// that take the lock themselves with `WQE_EXCLUDES(mu_)`.  See
/// `common::ThreadPool` for a worked example and README "Correctness
/// tooling" for the how-to.
/// @{

#if defined(__clang__)
#define WQE_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define WQE_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

/// Declares a class to be a lockable capability ("mutex").
#define WQE_CAPABILITY(x) WQE_THREAD_ANNOTATION(capability(x))
/// Declares an RAII class that acquires in its ctor, releases in its dtor.
#define WQE_SCOPED_CAPABILITY WQE_THREAD_ANNOTATION(scoped_lockable)
/// A field that may only be touched while `x` is held.
#define WQE_GUARDED_BY(x) WQE_THREAD_ANNOTATION(guarded_by(x))
/// A pointer field whose *pointee* may only be touched while `x` is held.
#define WQE_PT_GUARDED_BY(x) WQE_THREAD_ANNOTATION(pt_guarded_by(x))
/// The function acquires the given capabilities (and does not release).
#define WQE_ACQUIRE(...) WQE_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
/// The function releases the given capabilities.
#define WQE_RELEASE(...) WQE_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
/// The function acquires the capability iff it returns `ret`.
#define WQE_TRY_ACQUIRE(ret, ...) \
  WQE_THREAD_ANNOTATION(try_acquire_capability(ret, __VA_ARGS__))
/// Callers must hold the given capabilities (held before and after).
#define WQE_REQUIRES(...) WQE_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/// Callers must NOT hold the given capabilities (the function locks them).
#define WQE_EXCLUDES(...) WQE_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// The function returns a reference to the given capability.
#define WQE_RETURN_CAPABILITY(x) WQE_THREAD_ANNOTATION(lock_returned(x))
/// Escape hatch: the function body is exempt from analysis.  Every use
/// must carry a comment justifying why the analysis cannot see the
/// invariant (see the acceptance bar in README "Correctness tooling").
#define WQE_NO_THREAD_SAFETY_ANALYSIS \
  WQE_THREAD_ANNOTATION(no_thread_safety_analysis)

/// @}

#define WQE_CONCAT_IMPL(x, y) x##y
#define WQE_CONCAT(x, y) WQE_CONCAT_IMPL(x, y)

/// Evaluates `expr` (a Status expression); returns it from the enclosing
/// function if it is not OK.
#define WQE_RETURN_NOT_OK(expr)                 \
  do {                                          \
    ::wqe::Status _st = (expr);                 \
    if (!_st.ok()) return _st;                  \
  } while (false)

/// Evaluates `rexpr` (a Result<T> expression); on success assigns the value
/// to `lhs`, otherwise returns the error status from the enclosing function.
#define WQE_ASSIGN_OR_RETURN(lhs, rexpr)                          \
  WQE_ASSIGN_OR_RETURN_IMPL(WQE_CONCAT(_wqe_result_, __LINE__), lhs, rexpr)

#define WQE_ASSIGN_OR_RETURN_IMPL(result_name, lhs, rexpr) \
  auto result_name = (rexpr);                              \
  if (!result_name.ok()) return result_name.status();      \
  lhs = std::move(result_name).ValueOrDie()

/// Aborts the process when `expr` is not OK.  For use in main()s, benches
/// and tests where an error is unrecoverable.
#define WQE_CHECK_OK(expr)                                            \
  do {                                                                \
    ::wqe::Status _st = (expr);                                       \
    if (!_st.ok()) {                                                  \
      std::cerr << __FILE__ << ":" << __LINE__                        \
                << " WQE_CHECK_OK failed: " << _st << std::endl;      \
      std::abort();                                                   \
    }                                                                 \
  } while (false)

/// Aborts the process when `cond` is false.
#define WQE_CHECK(cond)                                                \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::cerr << __FILE__ << ":" << __LINE__                         \
                << " WQE_CHECK failed: " #cond << std::endl;           \
      std::abort();                                                    \
    }                                                                  \
  } while (false)

/// Debug-only WQE_CHECK: enforced when NDEBUG is not defined, a no-op
/// otherwise.  For contract checks that are too hot (or too disruptive)
/// for release builds, e.g. "the expander registry must not be mutated
/// once serving has started".
#ifdef NDEBUG
#define WQE_DCHECK(cond) \
  do {                   \
  } while (false)
#else
#define WQE_DCHECK(cond) WQE_CHECK(cond)
#endif

/// Debug-only WQE_CHECK_OK: evaluates and enforces the Status expression
/// when NDEBUG is not defined, does not evaluate it at all otherwise.
/// For structural validators that are too expensive for release builds,
/// e.g. `CsrGraph::CheckInvariants()` at freeze time.
#ifdef NDEBUG
#define WQE_DCHECK_OK(expr) \
  do {                      \
  } while (false)
#else
#define WQE_DCHECK_OK(expr) WQE_CHECK_OK(expr)
#endif
