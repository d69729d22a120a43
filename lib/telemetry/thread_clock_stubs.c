/* CPU time of the calling thread, in seconds.  Where the platform has
   no per-thread CPU clock this falls back to the monotonic wall clock. */

#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

value sherlock_thread_cpu_seconds(value unit)
{
  struct timespec ts;
  (void)unit;
#ifdef CLOCK_THREAD_CPUTIME_ID
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0)
    return caml_copy_double((double)ts.tv_sec + (double)ts.tv_nsec * 1e-9);
#endif
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return caml_copy_double((double)ts.tv_sec + (double)ts.tv_nsec * 1e-9);
}
