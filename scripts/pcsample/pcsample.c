// pcsample: an LD_PRELOAD program-counter sampler (EXPERIMENTS.md, "Where the
// time goes: the PC sampler").
//
// Every thread of the program gets its own POSIX timer, which raises SIGPROF
// at that thread every 100 us; the handler records the interrupted PC, so
// worker threads, libc and the JIT's code cache are sampled like any other
// code (gprof sees none of them). The timers run on the monotonic clock:
// Linux checks CPU-time clocks only at the scheduler tick, which would cap
// the rate at a few hundred samples a second. A thread blocked in a system
// call is therefore sampled too, at the libc wrapper it waits in. A helper
// thread copies /proc/self/maps every 50 ms while the program runs, because
// the JIT unmaps its code cache before exit and a map taken only at the end
// would not contain it.
//
// Build and run (the program's own output is unchanged):
//
//   gcc -O2 -shared -fPIC -o build/pcsample.so scripts/pcsample/pcsample.c -lpthread -ldl
//   LD_PRELOAD=$PWD/build/pcsample.so ./build/tools/komodo-fuzz --seed 1 --calls 3000
//   python3 scripts/pcsample/classify.py pcsample.<pid>.pcs
//
// At exit each sampled process writes pcsample.<pid>.pcs (one hex PC per
// line) and pcsample.<pid>.maps (every distinct mapping seen) into its
// working directory. A process that ends in _exit or a fatal signal writes
// nothing.
//
// The JIT (src/jit/jit.cc) reports each region of its code buffer through a
// weak hook, komodo_jit_code_region, which this library defines: the stub
// area once per engine, then every translated block with its guest VA. Each
// region is recorded with the number of samples taken before it, and
// pcsample.<pid>.jit lists them ("start end guest_va is_block samples", in
// hex), so that classify.py can give a code-cache sample to the block last
// written at its address before the sample was taken, also after a
// code-cache flush reused the address.
#define _GNU_SOURCE
#include <dlfcn.h>
#include <pthread.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#ifndef sigev_notify_thread_id  // glibc before 2.35 names only the union member
#define sigev_notify_thread_id _sigev_un._tid
#endif

enum {
  kIntervalNs = 100 * 1000,
  kMaxSamples = 1 << 22,    // 400 s of CPU time at 10 kHz; 32 MB, touched lazily
  kMaxMapLines = 1 << 14,
  kMapPeriodMs = 50,
  kMaxRegions = 1 << 22,    // translated blocks; 128 MB at most, grown on demand
};

static uint64_t* g_samples;
static atomic_size_t g_nsamples;
static pthread_key_t g_timer_key;  // the calling thread's timer, deleted at exit

static char* g_map_lines[kMaxMapLines];
static size_t g_nmap_lines;
static pthread_mutex_t g_maps_mu = PTHREAD_MUTEX_INITIALIZER;
static pthread_t g_maps_thread;
static atomic_int g_stop;

struct Region {
  uint64_t start;
  uint64_t end;
  uint64_t guest_va;
  uint64_t samples;  // samples taken before the region was written
  int is_block;
};
static struct Region* g_regions;
static size_t g_nregions;
static size_t g_region_cap;
static pthread_mutex_t g_regions_mu = PTHREAD_MUTEX_INITIALIZER;

// The JIT's weak hook (see above); engines on worker threads call it too.
void komodo_jit_code_region(const void* start, size_t bytes, uint64_t guest_va, int is_block) {
  pthread_mutex_lock(&g_regions_mu);
  if (g_nregions == g_region_cap && g_region_cap < kMaxRegions) {
    const size_t cap = g_region_cap == 0 ? 4096 : 2 * g_region_cap;
    struct Region* grown = realloc(g_regions, cap * sizeof(*grown));
    if (grown != NULL) {
      g_regions = grown;
      g_region_cap = cap;
    }
  }
  if (g_nregions < g_region_cap) {
    struct Region* r = &g_regions[g_nregions++];
    r->start = (uint64_t)(uintptr_t)start;
    r->end = r->start + bytes;
    r->guest_va = guest_va;
    r->samples = atomic_load_explicit(&g_nsamples, memory_order_relaxed);
    r->is_block = is_block;
  }
  pthread_mutex_unlock(&g_regions_mu);
}

static void OnProf(int sig, siginfo_t* info, void* uctx) {
  (void)sig;
  (void)info;
  const ucontext_t* uc = (const ucontext_t*)uctx;
#if defined(__x86_64__)
  const uint64_t pc = (uint64_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  const uint64_t pc = (uint64_t)uc->uc_mcontext.pc;
#else
  const uint64_t pc = 0;
  (void)uc;
#endif
  const size_t i = atomic_fetch_add_explicit(&g_nsamples, 1, memory_order_relaxed);
  if (i < kMaxSamples) {
    g_samples[i] = pc;
  }
}

// Adds every line of /proc/self/maps not seen before.
static void SnapshotMaps(void) {
  FILE* f = fopen("/proc/self/maps", "r");
  if (f == NULL) {
    return;
  }
  char line[4096];
  pthread_mutex_lock(&g_maps_mu);
  while (fgets(line, sizeof(line), f) != NULL) {
    int seen = 0;
    for (size_t i = 0; i < g_nmap_lines && !seen; ++i) {
      seen = strcmp(g_map_lines[i], line) == 0;
    }
    if (!seen && g_nmap_lines < kMaxMapLines) {
      g_map_lines[g_nmap_lines++] = strdup(line);
    }
  }
  pthread_mutex_unlock(&g_maps_mu);
  fclose(f);
}

static void* MapsLoop(void* arg) {
  (void)arg;
  // SIGPROF samples the program, not this thread.
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGPROF);
  pthread_sigmask(SIG_BLOCK, &set, NULL);
  const struct timespec period = {0, kMapPeriodMs * 1000 * 1000};
  while (!atomic_load(&g_stop)) {
    SnapshotMaps();
    nanosleep(&period, NULL);
  }
  return NULL;
}

static void DeleteTimer(void* timer) {
  timer_delete((timer_t)timer);
}

// Starts a 100 us SIGPROF timer aimed at the calling thread.
static void StartThreadTimer(void) {
  struct sigevent sev;
  memset(&sev, 0, sizeof(sev));
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev.sigev_notify_thread_id = gettid();
  timer_t timer;
  if (timer_create(CLOCK_MONOTONIC, &sev, &timer) != 0) {
    return;
  }
  const struct itimerspec its = {{0, kIntervalNs}, {0, kIntervalNs}};
  if (timer_settime(timer, 0, &its, NULL) != 0) {
    timer_delete(timer);
    return;
  }
  pthread_setspecific(g_timer_key, timer);
}

typedef int (*CreateFn)(pthread_t*, const pthread_attr_t*, void* (*)(void*), void*);

static CreateFn RealCreate(void) {
  static CreateFn real;
  if (real == NULL) {
    real = (CreateFn)dlsym(RTLD_NEXT, "pthread_create");
  }
  return real;
}

struct Start {
  void* (*fn)(void*);
  void* arg;
};

static void* StartSampled(void* p) {
  const struct Start start = *(struct Start*)p;
  free(p);
  if (g_samples != NULL) {
    StartThreadTimer();
  }
  return start.fn(start.arg);
}

// Threads the program creates start their own timer first.
int pthread_create(pthread_t* thread, const pthread_attr_t* attr, void* (*fn)(void*),
                   void* arg) {
  struct Start* start = malloc(sizeof(*start));
  if (start == NULL) {
    return RealCreate()(thread, attr, fn, arg);
  }
  start->fn = fn;
  start->arg = arg;
  const int rc = RealCreate()(thread, attr, StartSampled, start);
  if (rc != 0) {
    free(start);
  }
  return rc;
}

__attribute__((constructor)) static void Start(void) {
  g_samples = mmap(NULL, sizeof(uint64_t) * kMaxSamples, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (g_samples == MAP_FAILED) {
    g_samples = NULL;
    return;
  }
  pthread_key_create(&g_timer_key, DeleteTimer);
  struct sigaction sa;
  memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = OnProf;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  RealCreate()(&g_maps_thread, NULL, MapsLoop, NULL);
  StartThreadTimer();
}

__attribute__((destructor)) static void Stop(void) {
  if (g_samples == NULL) {
    return;
  }
  timer_t timer = pthread_getspecific(g_timer_key);
  if (timer != NULL) {
    pthread_setspecific(g_timer_key, NULL);
    timer_delete(timer);
  }
  signal(SIGPROF, SIG_IGN);
  atomic_store(&g_stop, 1);
  pthread_join(g_maps_thread, NULL);
  SnapshotMaps();

  char path[64];
  snprintf(path, sizeof(path), "pcsample.%d.pcs", (int)getpid());
  FILE* f = fopen(path, "w");
  if (f != NULL) {
    size_t n = atomic_load(&g_nsamples);
    if (n > kMaxSamples) {
      n = kMaxSamples;
    }
    for (size_t i = 0; i < n; ++i) {
      fprintf(f, "%llx\n", (unsigned long long)g_samples[i]);
    }
    fclose(f);
  }
  snprintf(path, sizeof(path), "pcsample.%d.maps", (int)getpid());
  f = fopen(path, "w");
  if (f != NULL) {
    for (size_t i = 0; i < g_nmap_lines; ++i) {
      fputs(g_map_lines[i], f);
    }
    fclose(f);
  }
  pthread_mutex_lock(&g_regions_mu);
  if (g_nregions != 0) {
    snprintf(path, sizeof(path), "pcsample.%d.jit", (int)getpid());
    f = fopen(path, "w");
    if (f != NULL) {
      for (size_t i = 0; i < g_nregions; ++i) {
        const struct Region* r = &g_regions[i];
        fprintf(f, "%llx %llx %llx %d %llx\n", (unsigned long long)r->start,
                (unsigned long long)r->end, (unsigned long long)r->guest_va, r->is_block,
                (unsigned long long)r->samples);
      }
      fclose(f);
    }
  }
  pthread_mutex_unlock(&g_regions_mu);
}
