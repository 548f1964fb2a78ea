#include "util/perf_counters.hh"

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#endif

namespace ebcp
{

#if defined(__linux__)

namespace
{

int
openCounter(std::uint32_t type, std::uint64_t config)
{
    perf_event_attr attr;
    std::memset(&attr, 0, sizeof(attr));
    attr.type = type;
    attr.size = sizeof(attr);
    attr.config = config;
    attr.disabled = 1;
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    // pid=0 cpu=-1: this thread, any CPU.
    return static_cast<int>(
        syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0));
}

std::uint64_t
readCounter(int fd)
{
    if (fd < 0)
        return 0;
    std::uint64_t v = 0;
    if (read(fd, &v, sizeof(v)) != static_cast<ssize_t>(sizeof(v)))
        return 0;
    return v;
}

void
controlCounter(int fd, unsigned long request)
{
    if (fd >= 0)
        ioctl(fd, request, 0);
}

/** This thread's user+system CPU time, in seconds. Prefers the
 * nanosecond-resolution scheduler clock: getrusage times are
 * tick-quantized on many kernels (whole milliseconds), which is
 * useless for sub-percent comparisons of runs tens of ms long. */
double
threadCpuSeconds()
{
    timespec ts{};
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0)
        return static_cast<double>(ts.tv_sec) +
               static_cast<double>(ts.tv_nsec) * 1e-9;
    rusage ru{};
    if (getrusage(RUSAGE_THREAD, &ru) != 0)
        return 0.0;
    const auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/** First "cpu MHz" line of /proc/cpuinfo, as Hz (0 if unreadable). */
double
nominalCpuHz()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("cpu MHz", 0) != 0)
            continue;
        const std::size_t colon = line.find(':');
        if (colon == std::string::npos)
            continue;
        const double mhz = std::atof(line.c_str() + colon + 1);
        if (mhz > 0.0)
            return mhz * 1e6;
    }
    return 0.0;
}

/** The kernel's perf_event_paranoid setting, or "unreadable". */
std::string
paranoidSetting()
{
    std::ifstream in("/proc/sys/kernel/perf_event_paranoid");
    std::string v;
    if (in >> v)
        return v;
    return "unreadable";
}

} // namespace

PerfCounters::PerfCounters()
{
    cyclesFd_ = openCounter(PERF_TYPE_HARDWARE,
                            PERF_COUNT_HW_CPU_CYCLES);
    const int open_errno = cyclesFd_ < 0 ? errno : 0;
    instructionsFd_ = openCounter(PERF_TYPE_HARDWARE,
                                  PERF_COUNT_HW_INSTRUCTIONS);
    available_ = cyclesFd_ >= 0 && instructionsFd_ >= 0;
    if (!available_) {
        // Say exactly which door is closed: the syscall's errno plus
        // the paranoid setting distinguishes "container seccomp
        // denies the syscall" (EACCES/EPERM) from "kernel built
        // without perf" (ENOSYS) from "paranoid level too high".
        std::ostringstream os;
        os << "perf_event_open failed ("
           << (open_errno ? std::strerror(open_errno) : "cycle counter "
                                                        "unavailable")
           << "; perf_event_paranoid=" << paranoidSetting()
           << "); cycles below are estimated from thread CPU time x "
              "nominal "
           << "frequency";
        reason_ = os.str();
        nominalHz_ = nominalCpuHz();
        if (nominalHz_ <= 0.0) {
            reason_ += "; /proc/cpuinfo reports no cpu MHz, so the "
                       "cycle estimate is unavailable too";
        }
    }
}

PerfCounters::~PerfCounters()
{
    for (int fd : {cyclesFd_, instructionsFd_})
        if (fd >= 0)
            close(fd);
}

void
PerfCounters::start()
{
    startCpuSeconds_ = threadCpuSeconds();
    for (int fd : {cyclesFd_, instructionsFd_}) {
        controlCounter(fd, PERF_EVENT_IOC_RESET);
        controlCounter(fd, PERF_EVENT_IOC_ENABLE);
    }
}

void
PerfCounters::stop()
{
    for (int fd : {cyclesFd_, instructionsFd_})
        controlCounter(fd, PERF_EVENT_IOC_DISABLE);
    sample_ = {};
    sample_.available = available_;
    sample_.cpuSeconds = threadCpuSeconds() - startCpuSeconds_;
    if (available_) {
        sample_.cycles = readCounter(cyclesFd_);
        sample_.instructions = readCounter(instructionsFd_);
        sample_.nominalSource = "hardware";
        return;
    }
    // Degraded path: estimate cycles from CPU time at the nominal
    // frequency. Instructions stay zero -- there is no honest
    // CPU-time stand-in for an instruction count -- and the reason
    // string plus the frequency source travel with the sample so
    // reports can print the cause instead of a bare zero.
    sample_.reason = reason_;
    sample_.nominalSource = "unavailable";
    if (nominalHz_ > 0.0 && sample_.cpuSeconds > 0.0) {
        sample_.estimated = true;
        sample_.nominalHz = nominalHz_;
        sample_.nominalSource = "/proc/cpuinfo cpu MHz";
        sample_.cycles = static_cast<std::uint64_t>(
            sample_.cpuSeconds * nominalHz_);
    }
}

#else // !__linux__

PerfCounters::PerfCounters()
{
    reason_ = "hardware performance counters are only wired up on "
              "Linux (perf_event_open)";
}

PerfCounters::~PerfCounters() = default;

void
PerfCounters::start()
{
}

void
PerfCounters::stop()
{
    sample_ = {};
    sample_.reason = reason_;
    sample_.nominalSource = "unavailable";
}

#endif

} // namespace ebcp
