// Fixture: every raw condition variable here must be flagged; the
// aces::CondVar waits, the header include, a std::condition_variable_any
// named in this comment and the reasoned stop_token exception must not be.
#include <condition_variable>
#include <stop_token>

#include "common/mutex.h"

std::condition_variable g_ready;                 // finding: raw-condvar
std::condition_variable_any g_any_ready;         // finding: raw-condvar

struct Queue {
  aces::Mutex mu;
  aces::CondVar not_empty;
  std::condition_variable_any not_full;          // finding: raw-condvar
};

void wake_raw(std::condition_variable& cv) {     // finding: raw-condvar
  cv.notify_one();
}

// The sanctioned wait: aces::CondVar over the held aces::Mutex.
void wait_once(Queue& q) {
  aces::MutexLock lock(q.mu);
  q.not_empty.wait(q.mu);
}

// Only condition_variable_any has the stop_token waits, so a reasoned
// allow keeps that one.
void sleep_until_stopped(aces::Mutex& mu, const std::stop_token& stop) {
  // aces-lint: allow(raw-condvar) only condition_variable_any has the stop_token waits
  std::condition_variable_any wake;
  aces::MutexLock lock(mu);
  wake.wait(mu, stop, [] { return false; });
}
