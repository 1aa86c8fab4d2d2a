// peak_rss: runs a command with its stdout sent to a file and prints the
// command's peak resident set size in kB, as wait4 reports it.
//
//   cc -O2 -o build/peak_rss scripts/peak_rss.c
//   ./build/peak_rss OUT_FILE COMMAND [ARGS...]
//
// Linux carries ru_maxrss across fork and exec, so a child's figure is never
// below its parent's resident size at the fork. A Python parent holds about
// 13 MB, which would hide any smaller peak of the command; this parent holds
// about 1 MB. Exits 1 if the command fails, 2 on a usage or system error.
#include <fcntl.h>
#include <stdio.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

int main(int argc, char** argv) {
  if (argc < 3) {
    fprintf(stderr, "usage: %s OUT_FILE COMMAND [ARGS...]\n", argv[0]);
    return 2;
  }
  const int out = open(argv[1], O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (out < 0) {
    perror(argv[1]);
    return 2;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    perror("fork");
    return 2;
  }
  if (pid == 0) {
    dup2(out, STDOUT_FILENO);
    close(out);
    execvp(argv[2], argv + 2);
    perror(argv[2]);
    _exit(127);
  }
  close(out);
  int status = 0;
  struct rusage usage;
  if (wait4(pid, &status, 0, &usage) != pid) {
    perror("wait4");
    return 2;
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    fprintf(stderr, "%s failed\n", argv[2]);
    return 1;
  }
  printf("%ld\n", usage.ru_maxrss);
  return 0;
}
