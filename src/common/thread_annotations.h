#ifndef GQLITE_COMMON_THREAD_ANNOTATIONS_H_
#define GQLITE_COMMON_THREAD_ANNOTATIONS_H_

/// Clang thread-safety annotations (-Wthread-safety).
///
/// These macros attach Clang's capability-analysis attributes to mutexes,
/// lock guards and the data they protect, so lock discipline is proven at
/// COMPILE TIME for every call path — not just the interleavings the TSan
/// CI leg happens to execute. On non-Clang compilers (the tier-1 GCC
/// build) every macro expands to nothing.
///
/// Usage map (see src/common/sync.h for the annotated primitives):
///  * GUARDED_BY(mu)      — field may only be read/written while `mu` is
///                          held. The workhorse annotation: every mutex-
///                          protected field in the engine carries it.
///  * PT_GUARDED_BY(mu)   — the POINTED-TO data is protected (the pointer
///                          itself may be read freely).
///  * REQUIRES(mu)        — function may only be CALLED while `mu` is
///                          held: helpers that run inside a caller's
///                          critical section (e.g.
///                          CypherEngine::ReadSnapshotLocked).
///  * ACQUIRE/RELEASE(mu) — function acquires/releases the capability
///                          (Mutex::Lock/Unlock, scoped guards).
///  * EXCLUDES(mu)        — function must NOT be called with `mu` held
///                          (anti-deadlock documentation, e.g. a function
///                          that acquires `mu` itself).
///  * CAPABILITY / SCOPED_CAPABILITY — class-level markers for mutex and
///                          RAII-guard types.
///
/// Reference: https://clang.llvm.org/docs/ThreadSafetyAnalysis.html

#if defined(__clang__) && (!defined(SWIG))
#define GQLITE_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define GQLITE_THREAD_ANNOTATION(x)  // no-op on GCC/MSVC
#endif

#define CAPABILITY(x) GQLITE_THREAD_ANNOTATION(capability(x))

#define SCOPED_CAPABILITY GQLITE_THREAD_ANNOTATION(scoped_lockable)

#define GUARDED_BY(x) GQLITE_THREAD_ANNOTATION(guarded_by(x))

#define PT_GUARDED_BY(x) GQLITE_THREAD_ANNOTATION(pt_guarded_by(x))

#define ACQUIRED_BEFORE(...) \
  GQLITE_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))

#define ACQUIRED_AFTER(...) \
  GQLITE_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

#define REQUIRES(...) \
  GQLITE_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

#define REQUIRES_SHARED(...) \
  GQLITE_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

#define ACQUIRE(...) \
  GQLITE_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

#define ACQUIRE_SHARED(...) \
  GQLITE_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))

#define RELEASE(...) \
  GQLITE_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

#define RELEASE_SHARED(...) \
  GQLITE_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))

#define TRY_ACQUIRE(...) \
  GQLITE_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

#define TRY_ACQUIRE_SHARED(...) \
  GQLITE_THREAD_ANNOTATION(try_acquire_shared_capability(__VA_ARGS__))

#define EXCLUDES(...) GQLITE_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

#define ASSERT_CAPABILITY(x) GQLITE_THREAD_ANNOTATION(assert_capability(x))

#define ASSERT_SHARED_CAPABILITY(x) \
  GQLITE_THREAD_ANNOTATION(assert_shared_capability(x))

#define RETURN_CAPABILITY(x) GQLITE_THREAD_ANNOTATION(lock_returned(x))

#define NO_THREAD_SAFETY_ANALYSIS \
  GQLITE_THREAD_ANNOTATION(no_thread_safety_analysis)

#endif  // GQLITE_COMMON_THREAD_ANNOTATIONS_H_
