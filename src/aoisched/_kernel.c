/* Compiled kernels of aoisched, built and loaded by kernel.py.

   Built with -ffp-contract=off and without -ffast-math, so every double
   comparison and operation rounds as the same one in Python does. */

#include <stdint.h>

/* A queue's sums over a segment, in the order of its row of ``sums``. */
enum { ATTEMPTS, DELIVERIES, LATENCY, SAMPLES, SPACING, SPACING_SQ, NSUMS };

/* Serve slots [a, a + n) under the weighted-rate rule (see cmu.CmuPolicy).

   Queue j (a position) holds the arrival slots queue[head[j]:end[j]],
   ascending: its undelivered packets, of which one whose slot is after t
   has not yet arrived in slot t.  So queue j is nonempty in slot t, after
   the slot's arrivals, iff head[j] < end[j] and queue[head[j]] <= t.  In
   each slot the queues are taken in ``order``; the first nonempty one
   attempts and succeeds iff u[t - a] < p[j], which delivers its oldest
   packet and advances head[j].  A slot where every queue is empty jumps
   to the earliest slot at which a queued packet arrives, or to the
   segment's end.

   Writes queue j's sums over the segment to sums[j * NSUMS:], in the
   enum's order: attempts, deliveries, the latency t - g + 1 of each packet
   that arrived in slot g and was delivered in slot t, and the count, sum
   and sum of squares of the spacing samples d = g - g_prev, g_prev being
   the arrival slot of the queue's previous delivery (-1 until its first,
   which takes no sample).  g_prev[j] carries over to the next segment.
   ``oldest`` (nq entries) is scratch. */
void cmu_serve(int64_t a, int64_t n, const double *u, int64_t nq,
               const int64_t *queue, const int64_t *order, const double *p,
               int64_t *head, const int64_t *end, int64_t *g_prev, int64_t *sums,
               int64_t *oldest)
{
    /* oldest[r]: arrival slot of the oldest undelivered packet of the queue
       of rank r, or INT64_MAX if it has none */
    for (int64_t r = 0; r < nq; r++) {
        int64_t j = order[r];
        oldest[r] = head[j] < end[j] ? queue[head[j]] : INT64_MAX;
    }
    for (int64_t k = 0; k < nq * NSUMS; k++)
        sums[k] = 0;
    const int64_t stop = a + n;
    for (int64_t t = a; t < stop; t++) {
        int64_t r = 0;
        while (r < nq && oldest[r] > t)
            r++;
        if (r == nq) {
            int64_t next = stop;
            for (r = 0; r < nq; r++)
                if (oldest[r] < next)
                    next = oldest[r];
            t = next - 1;
            continue;
        }
        int64_t j = order[r];
        int64_t *s = sums + j * NSUMS;
        s[ATTEMPTS]++;
        if (u[t - a] < p[j]) {
            int64_t g = oldest[r];
            s[DELIVERIES]++;
            s[LATENCY] += t - g + 1;
            if (g_prev[j] >= 0) {
                int64_t d = g - g_prev[j];
                s[SAMPLES]++;
                s[SPACING] += d;
                s[SPACING_SQ] += d * d;
            }
            g_prev[j] = g;
            int64_t h = ++head[j];
            oldest[r] = h < end[j] ? queue[h] : INT64_MAX;
        }
    }
}
