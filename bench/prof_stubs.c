/* Timer-signal PC sampler for bench/profile.ml.

   A POSIX interval timer on CLOCK_MONOTONIC raises SIGPROF at a fixed
   rate; the handler records the interrupted program counter into a
   preallocated buffer (async-signal-safe: one load, one store).  The
   OCaml side symbolizes the samples against `nm` output, using
   [prof_anchor]'s own runtime address to undo the PIE load offset.
   Linux/x86-64 only. */

#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>
#include <ucontext.h>

#include <caml/fail.h>
#include <caml/mlvalues.h>

#define MAX_SAMPLES (1 << 22)

static uintptr_t *samples;
static volatile long n_samples;
static timer_t timer;
static struct sigaction old_action;

static void on_prof(int sig, siginfo_t *info, void *ctx)
{
  (void)sig;
  (void)info;
  long i = n_samples;
  if (i < MAX_SAMPLES) {
    samples[i] = (uintptr_t)((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
    n_samples = i + 1;
  }
}

value prof_start(value v_hz)
{
  long hz = Long_val(v_hz);
  if (hz <= 0 || hz > 100000) caml_invalid_argument("prof_start: hz");
  if (samples == NULL) samples = malloc(sizeof(uintptr_t) * MAX_SAMPLES);
  if (samples == NULL) caml_failwith("prof_start: out of memory");
  n_samples = 0;

  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, &old_action) != 0)
    caml_failwith("prof_start: sigaction");

  struct sigevent sev;
  memset(&sev, 0, sizeof sev);
  sev.sigev_notify = SIGEV_SIGNAL;
  sev.sigev_signo = SIGPROF;
  if (timer_create(CLOCK_MONOTONIC, &sev, &timer) != 0)
    caml_failwith("prof_start: timer_create");

  long ns = 1000000000L / hz;
  struct itimerspec its;
  its.it_interval.tv_sec = ns / 1000000000L;
  its.it_interval.tv_nsec = ns % 1000000000L;
  its.it_value = its.it_interval;
  if (timer_settime(timer, 0, &its, NULL) != 0)
    caml_failwith("prof_start: timer_settime");
  return Val_unit;
}

value prof_stop(value unit)
{
  (void)unit;
  timer_delete(timer);
  sigaction(SIGPROF, &old_action, NULL);
  return Val_long(n_samples);
}

value prof_sample(value v_i)
{
  return Val_long((intnat)samples[Long_val(v_i)]);
}

value prof_anchor(value unit)
{
  (void)unit;
  return Val_long((intnat)&prof_anchor);
}
