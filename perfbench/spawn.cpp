// perfbench_spawn — run one command and report its own wall time and rusage.
//
//   perfbench_spawn REPORT_FILE TIMEOUT_S COMMAND [ARG ...]
//
// Linux keeps a process's peak RSS across exec, so a child forked straight
// from the (much larger) Python benchmark would report the interpreter's
// footprint as its own. This launcher is small, so the peak it passes on is
// below anything the simulator reaches. It forks, execs COMMAND (stdin,
// stdout and stderr inherited), kills it with SIGKILL after TIMEOUT_S
// seconds, reaps it with wait4 and writes one line to REPORT_FILE:
//
//   exit=<code> signal=<n> timed_out=<0|1> start_ns=<t> end_ns=<t>
//   utime_us=<n> stime_us=<n> maxrss_kb=<n>
//
// (start/end on CLOCK_MONOTONIC). Exit status: 0 when the report was
// written, 2 on bad usage, 1 when the command could not be started.

#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace {

volatile sig_atomic_t g_child = 0;
volatile sig_atomic_t g_timed_out = 0;

void on_alarm(int) {
  g_timed_out = 1;
  if (g_child > 0) kill(static_cast<pid_t>(g_child), SIGKILL);
}

long long mono_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<long long>(ts.tv_sec) * 1'000'000'000LL + ts.tv_nsec;
}

long long micros(const timeval& tv) {
  return static_cast<long long>(tv.tv_sec) * 1'000'000LL + tv.tv_usec;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr, "usage: perfbench_spawn REPORT_FILE TIMEOUT_S COMMAND [ARG ...]\n");
    return 2;
  }
  char* end = nullptr;
  const long timeout_s = std::strtol(argv[2], &end, 10);
  if (end == argv[2] || *end != '\0' || timeout_s < 1) {
    std::fprintf(stderr, "perfbench_spawn: bad TIMEOUT_S %s\n", argv[2]);
    return 2;
  }

  struct sigaction sa {};
  sa.sa_handler = on_alarm;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGALRM, &sa, nullptr);

  const long long start = mono_ns();
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("perfbench_spawn: fork");
    return 1;
  }
  if (pid == 0) {
    execvp(argv[3], argv + 3);
    std::perror("perfbench_spawn: exec");
    _exit(127);
  }
  g_child = pid;
  alarm(static_cast<unsigned>(timeout_s));

  int status = 0;
  rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0) {
    if (errno != EINTR) {
      std::perror("perfbench_spawn: wait4");
      return 1;
    }
  }
  const long long finish = mono_ns();
  alarm(0);

  std::FILE* f = std::fopen(argv[1], "w");
  if (f == nullptr) {
    std::perror("perfbench_spawn: report");
    return 1;
  }
  std::fprintf(f,
               "exit=%d signal=%d timed_out=%d start_ns=%lld end_ns=%lld utime_us=%lld "
               "stime_us=%lld maxrss_kb=%ld\n",
               WIFEXITED(status) ? WEXITSTATUS(status) : -1,
               WIFSIGNALED(status) ? WTERMSIG(status) : 0, static_cast<int>(g_timed_out),
               start, finish, micros(ru.ru_utime), micros(ru.ru_stime), ru.ru_maxrss);
  return std::fclose(f) == 0 ? 0 : 1;
}
