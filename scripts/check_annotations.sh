#!/usr/bin/env bash
# Annotation-coverage lint: every lock in the engine must be one of the
# annotated wrappers from src/common/annotated_mutex.h (which carry the
# clang thread-safety capability annotations and the runtime lock rank).
# A raw standard primitive anywhere else dodges both checkers, so CI
# fails on sight of one.
set -euo pipefail
cd "$(dirname "$0")/.."

pattern='std::(mutex|shared_mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|shared_timed_mutex|condition_variable|condition_variable_any|lock_guard|unique_lock|shared_lock|scoped_lock)\b'
allowed='src/common/annotated_mutex.h'
# The vocabulary has no recursive lock: none is allowed anywhere.
recursive='std::recursive_(timed_)?mutex\b'

matches=$(grep -rEn "$pattern" src --include='*.h' --include='*.cc' \
  | grep -v "^${allowed}:" || true)
matches+=$(grep -rEn "$recursive" "$allowed" || true)

if [ -n "$matches" ]; then
  echo "error: raw standard mutex primitives outside ${allowed}:" >&2
  echo "$matches" >&2
  echo >&2
  echo "Use the annotated vocabulary instead (DESIGN.md #13):" >&2
  echo "  Mutex / SharedMutex  with a LockRank and a name" >&2
  echo "  MutexLock / ReaderMutexLock / WriterMutexLock / UniqueMutexLock" >&2
  echo "  CondVar (condition_variable_any over the annotated locks)" >&2
  exit 1
fi
echo "ok: no raw mutex primitives outside ${allowed}"
