/**
 * @file
 * Argument checks shared by the examples. A bad benchmark or bag
 * name, or a malformed number, prints the example's usage line and
 * exits 2 instead of reaching a panic or an uncaught exception.
 */

#ifndef SCHEDTASK_EXAMPLES_EXAMPLE_ARGS_HH
#define SCHEDTASK_EXAMPLES_EXAMPLE_ARGS_HH

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace schedtask
{

/** Print `why` and the usage line to stderr, then exit 2. */
[[noreturn]] inline void
usageError(const char *usage, const std::string &why)
{
    std::fprintf(stderr, "%s\nusage: %s\n", why.c_str(), usage);
    std::exit(2);
}

/**
 * argv[index], or `fallback` when the argument is absent; exits 2
 * through usageError unless the name is one of `valid` (e.g.
 * BenchmarkSuite::benchmarkNames() or Workload::bagNames()).
 */
inline std::string
nameArg(int argc, char **argv, int index, const char *fallback,
        const std::vector<std::string> &valid, const char *usage)
{
    const std::string name = argc > index ? argv[index] : fallback;
    if (std::find(valid.begin(), valid.end(), name) == valid.end()) {
        std::string names;
        for (const std::string &v : valid)
            names += (names.empty() ? "" : ", ") + v;
        usageError(usage, "unknown name '" + name + "' (one of: " + names
                              + ")");
    }
    return name;
}

} // namespace schedtask

#endif // SCHEDTASK_EXAMPLES_EXAMPLE_ARGS_HH
