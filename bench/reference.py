"""The fixed task that run.py times to follow the machine's speed.

    python3 bench/reference.py

It makes state-vector updates the way quasiq makes them, in code that never
calls quasiq: three butterfly passes over a dict from tuple keys to integer
triples, which add and merge terms as the dict grows from 16k to 131k terms.
It runs in a process of its own, so that its memory never counts towards the
benchmark's own process, whose size every child it spawns inherits in the
max RSS the kernel reports for it.
"""


def reference_task() -> int:
    state = {(k, k & 7): (k * 2654435761 % 1000003, 1, 3) for k in range(1 << 14)}
    for bit in range(3):
        mask, new = 1 << bit, {}
        for (k, tag), (a, b, e) in state.items():
            for key_bits, sign in ((k & ~mask, 1), (k | mask, -1 if k & mask else 1)):
                key = (key_bits, tag)
                old = new.get(key)
                new[key] = ((sign * a, b, e + 1) if old is None
                            else (old[0] + sign * a, old[1] * b, max(old[2], e + 1)))
        state = new
    return len(state)


if __name__ == "__main__":
    reference_task()
