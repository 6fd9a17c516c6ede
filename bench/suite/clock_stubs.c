/* Monotonic nanosecond clock for dkbench: untagged and [@@noalloc],
   so reading it inside a timed region allocates nothing.

   A read is clock_gettime(CLOCK_MONOTONIC), or on x86-64, once
   [dkbench_use_tsc] has calibrated the time-stamp counter against
   that clock, one rdtsc and a multiply: about half the cost on the
   reference host, which the span recorder needs (see spans.ml). */

#include <stdint.h>
#include <time.h>
#include <caml/mlvalues.h>

static int64_t mono_ns(void)
{
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (int64_t)ts.tv_sec * 1000000000 + (int64_t)ts.tv_nsec;
}

#if defined(__x86_64__)
static uint64_t ns_per_tick_q32 = 0; /* ns per tick in 32.32 fixed point; 0: not calibrated */
static int64_t tsc_base, mono_base;

static inline int64_t tsc(void)
{
  unsigned lo, hi;
  __asm__ volatile("rdtsc" : "=a"(lo), "=d"(hi));
  return ((int64_t)hi << 32) | lo;
}
#endif

/* Calibrate over [ms] milliseconds; call once, before any domain
   starts.  Returns false where there is no counter to use. */
value dkbench_use_tsc(value ms)
{
#if defined(__x86_64__)
  int64_t m0 = mono_ns(), t0 = tsc(), m1, t1;
  do {
    m1 = mono_ns();
    t1 = tsc();
  } while (m1 - m0 < (int64_t)Long_val(ms) * 1000000);
  if (t1 <= t0) return Val_false;
  tsc_base = t1;
  mono_base = m1;
  ns_per_tick_q32 = (uint64_t)((double)(m1 - m0) / (double)(t1 - t0) * 4294967296.0);
  return Val_true;
#else
  (void)ms;
  return Val_false;
#endif
}

intnat dkbench_now_ns(value unit)
{
  (void)unit;
#if defined(__x86_64__)
  if (ns_per_tick_q32)
    return (intnat)(mono_base + (int64_t)(((__int128)(tsc() - tsc_base) * (__int128)ns_per_tick_q32) >> 32));
#endif
  return (intnat)mono_ns();
}

value dkbench_now_ns_byte(value unit)
{
  return Val_long(dkbench_now_ns(unit));
}
