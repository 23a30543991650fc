/* Compiled kernels of aoisched, built and loaded by kernel.py.

   Built with -ffp-contract=off and without -ffast-math, so every double
   comparison and operation rounds as the same one in Python does. */

#include <stdint.h>

/* Serve slots [a, a + n) under the weighted-rate rule (see cmu.CmuPolicy).

   Queue j (a position) holds len[j] undelivered packets, whose arrival
   slots ascend from queue[j]; a packet whose slot is after t has not yet
   arrived in slot t.  FIFO service means queue j's k-th success in the
   segment delivers queue[j][k], so the queue is nonempty in slot t, after
   the slot's arrivals, iff k < len[j] and queue[j][k] <= t.  In each slot
   the queues are taken in ``order``; the first nonempty one attempts, and
   succeeds iff u[t - a] < p[j].

   Writes each queue's attempts, and its success slots, ascending, to
   out[end[j - 1]:end[j]] (with end[-1] = 0).  ``oldest`` (nq entries) and
   ``who`` (n entries) are scratch. */
void cmu_serve(int64_t a, int64_t n, const double *u, int64_t nq,
               const int64_t *order, const double *p,
               const int64_t *const *queue, const int64_t *len,
               int64_t *attempts, int64_t *end, int64_t *oldest,
               int32_t *who, int64_t *out)
{
    /* oldest[r]: arrival slot of the oldest undelivered packet of the queue
       of rank r, or INT64_MAX if it has none; end[j] counts queue j's
       successes until the offsets are laid out */
    for (int64_t r = 0; r < nq; r++) {
        int64_t j = order[r];
        attempts[j] = end[j] = 0;
        oldest[r] = len[j] ? queue[j][0] : INT64_MAX;
    }
    for (int64_t s = 0; s < n; s++) {
        int64_t r = 0;
        while (r < nq && oldest[r] > a + s)
            r++;
        who[s] = -1;
        if (r == nq)
            continue;
        int64_t j = order[r];
        attempts[j]++;
        if (u[s] < p[j]) {
            int64_t k = ++end[j];
            oldest[r] = k < len[j] ? queue[j][k] : INT64_MAX;
            who[s] = (int32_t)j;
        }
    }
    int64_t start = 0;
    for (int64_t j = 0; j < nq; j++) {
        int64_t count = end[j];
        end[j] = start;
        start += count;
    }
    for (int64_t s = 0; s < n; s++)
        if (who[s] >= 0)
            out[end[who[s]]++] = a + s;
}
