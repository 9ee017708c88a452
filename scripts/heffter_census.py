"""Census of the searched three-by-three zero-sum arrays: how many exist, how
the signs distribute, and how many cyclic orderings of each line keep the
partial sums distinct."""
import argparse
from collections import Counter

from orthocycles.heffter import search_3x3, simple_cyclic_orders, validate_heffter


def distinct_sum_orderings(entries, modulus):
    # cyclic orderings with the head fixed, counted by the library's test
    return sum(1 for _ in simple_cyclic_orders(entries, modulus))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.parse_args()

    arrays = list(search_3x3())
    print(f"{len(arrays)} valid arrays")

    negatives = Counter()
    per_line = Counter()
    for arr in arrays:
        assert validate_heffter(arr).ok
        negatives[sum(x < 0 for row in arr.cells for x in row)] += 1
        for i in range(arr.rows):
            per_line[distinct_sum_orderings(arr.row_entries(i), arr.modulus)] += 1
        for j in range(arr.cols):
            per_line[distinct_sum_orderings(arr.col_entries(j), arr.modulus)] += 1

    print(f"negative entries per array: {dict(sorted(negatives.items()))}")
    print(f"distinct-sum orderings per line, out of 2: "
          f"{dict(sorted(per_line.items()))}")


if __name__ == "__main__":
    main()
