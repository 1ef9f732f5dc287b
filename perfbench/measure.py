"""Peak memory and order statistics shared by the benchmark's scripts."""

import resource
import statistics


def peak_rss_mb():
    """Peak resident set of this process in MiB.

    VmHWM belongs to the current address space, so unlike ru_maxrss it does
    not include the parent's pages this process had before exec.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def percentile(values, q):
    """The q-th percentile (0 < q < 100) with linear interpolation."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] \
        if len(values) > 1 else values[0]


def spread(values):
    """(median, first quartile, third quartile, IQR as a share of the median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")
