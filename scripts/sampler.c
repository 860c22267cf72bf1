/*
 * A SIGPROF sampling profiler for one process, loaded with LD_PRELOAD
 * (scripts/profile.sh builds and drives it).
 *
 * A process-wide ITIMER_PROF fires every millisecond of CPU time summed over
 * all threads (the kernel rounds the period up to its tick: one sample per
 * 4 ms of CPU on a 250 Hz kernel). The signal goes to the thread that was
 * running, so worker threads are sampled, not only the main thread. The
 * handler stores the interrupted program counter. At exit the samples are
 * written to the file named by SAMPLER_OUT, one "object offset" line each
 * (offset from the object's load base), for `nm` to symbolise.
 *
 * Build: cc -O2 -shared -fPIC -o sampler.so scripts/sampler.c -ldl
 */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 21)
#define PERIOD_US 1000

static uintptr_t samples[MAX_SAMPLES];
static atomic_size_t n_samples;

static void on_sigprof(int sig, siginfo_t *info, void *ctx)
{
    (void)sig;
    (void)info;
    ucontext_t *uc = ctx;
#if defined(__x86_64__)
    uintptr_t pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    uintptr_t pc = (uintptr_t)uc->uc_mcontext.pc;
#else
#error "sampler.c: unsupported architecture"
#endif
    size_t i = atomic_fetch_add_explicit(&n_samples, 1, memory_order_relaxed);
    if (i < MAX_SAMPLES)
        samples[i] = pc;
}

__attribute__((constructor)) static void sampler_start(void)
{
    struct sigaction sa = {0};
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, PERIOD_US}, {0, PERIOD_US}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void sampler_stop(void)
{
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("SAMPLER_OUT");
    FILE *out = path ? fopen(path, "w") : NULL;
    if (!out)
        return;
    size_t n = atomic_load(&n_samples);
    if (n > MAX_SAMPLES)
        n = MAX_SAMPLES;
    for (size_t i = 0; i < n; i++) {
        Dl_info d;
        if (dladdr((void *)samples[i], &d) && d.dli_fname && d.dli_fname[0])
            fprintf(out, "%s %lx\n", d.dli_fname,
                    (unsigned long)(samples[i] - (uintptr_t)d.dli_fbase));
        else
            fprintf(out, "? %lx\n", (unsigned long)samples[i]);
    }
    fclose(out);
}
