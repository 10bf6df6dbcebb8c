"""A fixed job that gauges the host's speed; run.py scales its times by it.

    python3 perfbench/calibrate.py FILE > OUT

FILE is the TSV file of generate.py's ``CALIBRATION`` workload.  The job
reads and splits every line, groups the rows by query, computes every
reference value with reference.py and writes them out as JSON.  That is
the same kind of work as `lindcg metrics`, in a fresh interpreter as each
measured child is, but none of it is lindcg code: a change to the program
leaves this job's time alone.
"""

import json
import sys

import reference


def main(path: str) -> None:
    queries: dict[str, list[tuple[int, float]]] = {}
    with open(path, encoding="utf-8") as lines:
        for line in lines:
            qid, grade, score = line.rstrip("\n").split("\t")
            queries.setdefault(qid, []).append((int(grade), float(score)))
    json.dump(reference.dataset_reference(queries), sys.stdout, indent=1)


if __name__ == "__main__":
    main(sys.argv[1])
