"""The benchmark's reference workload: a fixed slice of exact rational
arithmetic, the kind of work lmhs spends its time in.

The benchmark times it next to every item to follow the machine's speed:
in-process for library workloads, and as ``python3 perfbench/reference.py``
(interpreter start-up included) for command-line workloads.
"""

from fractions import Fraction


def reference_loop() -> Fraction:
    a, b, s = Fraction(1, 3), Fraction(2, 7), Fraction(0)
    for k in range(1, 600):
        s = (s + a * b) / (1 + Fraction(1, k))
        a, b = b, a + Fraction(k, 11)
    return s


if __name__ == "__main__":
    reference_loop()
