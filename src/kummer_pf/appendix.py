"""Reference connection matrices in the theta-scaled convention.

The 5x5 matrices below are the known closed-form entries of the rank-5
connection on the basis (u, tp u, tq u, tr u, tp^2 u), with rows giving the
theta_x action (so they equal x * M_x for the derived d/dx-convention
matrices).  They are stored as verbatim expression strings (whitespace and
typography normalized) and parsed on demand into exact rational functions;
``compare_fixture`` in the pfaffian module checks the derivation against
them entry by entry.

Entries in rows 1-4 are expected to match exactly.  The row-5 entries run
to hundreds of printed terms, where transcription slips are plausible; any
mismatch there is reported by the comparator rather than treated as fatal.

The d1, d2, d3 strings duplicate the divisor polynomials and are parsed as
a cross-check of the hand-typed forms in ``divisors``.
"""

from __future__ import annotations

from functools import lru_cache

from .divisors import CANDIDATE_DIVISORS
from .polynomials import MultiPoly, RatFunc

D1_TEXT = (
    "-q^4 + 2 p q^4 - 4 q^2 r + 15 p q^2 r - 15 p^2 q^2 r + 6 q^3 r"
    " + 12 p r^2 - 36 p^2 r^2 + 24 p^3 r^2 - 81 r^3"
)
D2_TEXT = (
    "-q^2 + 2 p q^2 - p^2 q^2 + 4 q^3 - 4 r + 12 p r - 12 p^2 r +"
    " 4 p^3 r + 18 q r - 18 p q r + 27 r^2"
)
D3_TEXT = "-p^2 q^2 + 4 q^3 + 4 p^3 r - 18 p q r + 27 r^2"


# Entry strings, verbatim up to whitespace and typography.
ENTRIES = {
    ('p', 1, 1): '0',
    ('p', 1, 2): '1',
    ('p', 1, 3): '0',
    ('p', 1, 4): '0',
    ('p', 1, 5): '0',
    ('p', 2, 1): '0',
    ('p', 2, 2): '0',
    ('p', 2, 3): '0',
    ('p', 2, 4): '0',
    ('p', 2, 5): '1',
    ('p', 3, 1): 'p q (-q^3 + 4 (-1 + 2 p) q r + 36 r^2)/(8d1)',
    ('p', 3, 2): 'q (-2 (p^2 - 4 q) q^3 + q (8 p^2 (-1 + 2 p) + 9 (2 - 5 p) q) r + 18 (4 + 2 p (-5 + 4 p) - 15 q) r^2)/(4p d1)',
    ('p', 3, 3): 'p (-2 q^4 + 11 (-1 + 2 p) q^2 r + 3 (-4 (1 - 2 p)^2 + 27 q) r^2)/ (2 d1)',
    ('p', 3, 4): 'p q (-7 q^3 + 12 (-1 + 2 p) q r + 216 r^2)/ (4 d1)',
    ('p', 3, 5): 'q ((p - p^2 - 4 q) q^3 + (-1 + 2 p) q (4 (-1 + p) p + 9 q) r + 9 (-4 - 12 (-1 + p) p + 15 q) r^2)/(2p d1)',
    ('p', 4, 1): 'p r^2 (-4 (-1 + p) p - 15 q) /(4d1)',
    ('p', 4, 2): 'r ((2 - 4 p) q^3 - 6 (4 + p (-5 + 4 p)) q r + 108 q^2 r + r (-8 (-1 + p) p^3 - 27 (-2 + p) r))/(2 p d1)',
    ('p', 4, 3): 'p r (q^3 - 2 p q^3 + 4 q r - 7 p q r + 7 p^2 q r - 36 q^2 r - 9 r^2 + 18 p r^2)/(q d1)',
    ('p', 4, 4): 'p r ((-4 + 8 p) q^2 - 24 (-1 + p) p r - 81 q r)/(2 d1)',
    ('p', 4, 5): 'r ((-1 + 2 p) q^3 + 6 (2 + 3 (-1 + p) p) q r - 54 q^2 r + r (-4 (-1 + p)^2 p^2 + 27 (-1 + 2 p) r))/(p d1)',
    ('p', 5, 1): '-p^3 (2 q^8 - 2 p q^8 + 2 p^2 q^8 - 24 q^9 + 16 q^6 r - 49 p q^6 r + 51 p^2 q^6 r - 34 p^3 q^6 r - 190 q^7 r + 380 p q^7 r + 32 q^4 r^2 - 232 p q^4 r^2 + 456 p^2 q^4 r^2- 448 p^3 q^4 r^2 + 224 p^4 q^4 r^2 - 277 q^5 r^2 + 2124 p q^5 r^2 - 2124 p^2 q^5 r^2 - 966 q^6 r^2 - 272 p q^2 r^3 + 1104 p^2 q^2 r^3 - 1696 p^3 q^2 r^3 + 1440 p^4 q^2 r^3 - 576 p^5 q^2 r^3 + 504 q^3 r^3 + 1320 p q^3 r^3 - 6984 p^2 q^3 r^3 + 4656 p^3 q^3 r^3 - 4239 q^4 r^3 + 8478 p q^4 r^3 + 384 p^2 r^4 - 1152 p^3 r^4 + 1536 p^4 r^4 - 1152 p^5 r^4 + 384 p^6 r^4 + 432 q r^4 - 2592 p q r^4+ 5184 p^3 q r^4 - 2592 p^4 q r^4 - 4968 q^2 r^4 + 24300 p q^2 r^4 - 24300 p^2 q^2 r^4 + 3240 q^3 r^4 - 3888 r^5 + 18144 p r^5 - 31104 p^2 r^5 + 20736 p^3 r^5 + 8748 q r^5 - 17496 p q r^5 + 43740 r^6) /(8 d1 d2 d3)',
    ('p', 5, 2): '(-5 p^3 q^8 + 7 p^4 q^8 - 6 p^5 q^8 - 32 q^9 + 128 p q^9 - 108 p^2 q^9 + 56 p^3 q^9 + 128 q^10 - 448 p q^10 - 40 p^3 q^6 r + 137 p^4 q^6 r - 164 p^5 q^6 r + 99 p^6 q^6 r - 256 q^7 r +1484 p q^7 r - 2793 p^2 q^7 r + 2112 p^3 q^7 r - 904 p^4 q^7 r + 1280 q^8 r - 5760 p q^8 r + 6912 p^2 q^8 r - 768 q^9 r - 80 p^3 q^4 r^2 + 600 p^4 q^4 r^2 - 1296 p^5 q^4 r^2+ 1336 p^6 q^4 r^2 - 624 p^7 q^4 r^2 - 512 q^5 r^2 + 4704 p q^5 r^2 - 15266 p^2 q^5 r^2 + 20762 p^3 q^5 r^2 - 14202 p^4 q^5 r^2 + 5076 p^5 q^5 r^2 + 2856 q^6 r^2 - 19536 p q^6 r^2 + 50853 p^2 q^6 r^2 - 36546 p^3 q^6 r^2 - 1728 q^7 r^2 - 4320 p q^7 r^2 + 656 p^4 q^2 r^3 - 2864 p^5 q^2 r^3 + 4800 p^6 q^2 r^3 - 4176 p^7 q^2 r^3 + 1584 p^8 q^2 r^3 + 3264 p q^3 r^3 - 22752 p^2 q^3 r^3 + 55872 p^3 q^3 r^3 - 63216 p^4 q^3 r^3 + 38976 p^5 q^3 r^3 - 11280 p^6 q^3 r^3 - 1728 q^4 r^3 - 5778 p q^4 r^3 + 74115 p^2 q^4 r^3 -154008 p^3 q^4 r^3 + 77868 p^4 q^4 r^3 + 9504 q^5 r^3 - 56376 p q^5 r^3 + 84564 p^2 q^5 r^3 - 960 p^5 r^4 + 3264 p^6 r^4 - 4800 p^7 r^4+ 3648 p^8 r^4 - 1152 p^9 r^4 - 6048 p^2 q r^4 + 35424 p^3 q r^4 - 69984 p^4 q r^4 + 67392 p^5 q r^4 - 34560 p^6 q r^4 + 6912 p^7 q r^4 - 3456 q^2 r^4 + 29808 p q^2 r^4- 61128 p^2 q^2 r^4 - 30564 p^3 q^2 r^4 + 117612 p^4 q^2 r^4 - 44712 p^5 q^2 r^4 + 10368 q^3 r^4 - 139320 p q^3 r^4 + 414720 p^2 q^3 r^4 - 324000 p^3 q^3 r^4 + 29160 q^4 r^4 - 32076 p q^4 r^4 + 18144 p r^5 - 104976 p^2 r^5 + 221616 p^3 r^5 - 225504 p^4 r^5 + 119232 p^5 r^5 - 32400 p^6 r^5 - 69984 p q r^5 + 472392 p^2 q r^5 - 816480 p^3 q r^5 + 443232 p^4 q r^5 + 5832 q^2 r^5 - 196830 p q^2 r^5 + 137781 p^2 q^2 r^5 + 104976 q^3 r^5 - 69984 r^6 - 69984 p r^6 + 559872 p^2 r^6 - 489888 p^3 r^6 + 314928 q r^6 - 157464 p q r^6 + 472392 r^7) /(4d1 d2 d3)',
    ('p', 5, 3): '-p^3 (3 q^9 - 48 q^{10} + 22 q^7 r - 41 p q^7 r - 9 p^2 q^7 r + 6 p^3 q^7 r - 364 q^8 r + 728 p q^8 r + 32 q^5 r^2 - 219 p q^5 r^2 + 179 p^2 q^5 r^2 + 80 p^3 q^5 r^2 - 40 p^4 q^5 r^2 - 451 q^6 r^2 + 3984 p q^6 r^2 - 3984 p^2 q^6 r^2 - 2208 q^7 r^2 - 32 q^3 r^3 - 232 p q^3 r^3 + 864 p^2 q^3 r^3 - 496 p^3 q^3 r^3 - 120 p^4 q^3 r^3 + 48 p^5 q^3 r^3 + 1209 q^4 r^3 + 2358 p q^4 r^3 - 14328 p^2 q^4 r^3 + 9552 p^3 q^4 r^3 - 10395 q^5 r^3 + 20790 p q^5 r^3 - 48 p q r^4 + 912 p^2 q r^4- 1824 p^3 q r^4 + 1152 p^4 q r^4 - 288 p^5 q r^4 + 96 p^6 q r^4 + 1368 q^2 r^4 - 7128 p q^2 r^4 - 648 p^2 q^2 r^4 + 15552 p^3 q^2 r^4 - 7776 p^4 q^2 r^4 - 14472 q^3 r^4 + 72414 p q^3 r^4 - 72414 p^2 q^3 r^4+ 2268 q^4 r^4 + 1296 r^5 - 8640 p r^5 + 20736 p^2 r^5 - 22464 p^3 r^5 + 12960 p^4 r^5 - 5184 p^5 r^5 - 14256 q r^5 + 82620 p q r^5 - 162324 p^2 q r^5 + 108216 p^3 q r^5 + 4374 q^2 r^5 - 8748 p q^2 r^5 - 37908 r^6 + 139968 p r^6 - 139968 p^2 r^6 + 135594 q r^6)/(2q d1 d2 d3)',
    ('p', 5, 4): 'p^3 (-10 q^8 - 2 p q^8 + 2 p^2 q^8 + 168 q^9 - 80 q^6 r + 163 p q^6 r - 9 p^2 q^6 r + 6 p^3 q^6 r + 1266 q^7 r - 2532 p q^7 r - 160 q^4 r^2 + 984 p q^4 r^2 - 1104 p^2 q^4 r^2 + 240 p^3 q^4 r^2 - 120 p^4 q^4 r^2 + 1671 q^5 r^2 - 13140 p q^5 r^2 + 13140 p^2 q^5 r^2 + 5562 q^6 r^2 + 1200 p q^2 r^3 - 3744 p^2 q^2 r^3 + 2976 p^3 q^2 r^3 -720 p^4 q^2 r^3 + 288 p^5 q^2 r^3 - 2376 q^3 r^3 - 9720 p q^3 r^3 + 43416 p^2 q^3 r^3 - 28944 p^3 q^3 r^3 + 21789 q^4 r^3 - 43578 p q^4 r^3 - 1728 p^2 r^4 + 3456 p^3 r^4- 1728 p^4 r^4 - 1296 q r^4 + 7776 p q r^4 + 15552 p^2 q r^4 - 46656 p^3 q r^4 + 23328 p^4 q r^4 + 26892 q^2 r^4 - 121500 p q^2 r^4 + 121500 p^2 q^2 r^4 - 29160 q^3 r^4+ 23328 r^5 - 116640 p r^5 + 209952 p^2 r^5 - 139968 p^3 r^5 - 78732 q r^5 + 157464 p q r^5 - 236196 r^6)/(4 d1 d2 d3)',
    ('p', 5, 5): '-3 (-2 p^4 q^8 + 2 p^5 q^8 - 8 q^9 + 32 p q^9 - 32 p^2 q^9 + 16 p^3 q^9 + 32 q^{10} - 96 p q^{10} + p^3 q^6 r - 18 p^4 q^6 r + 49 p^5 q^6 r - 32 p^6 q^6 r - 64 q^7 r + 374 p q^7 r -744 p^2 q^7 r + 604 p^3 q^7 r - 228 p^4 q^7 r + 320 q^8 r - 1344 p q^8 r + 1536 p^2 q^8 r - 192 q^9 r + 8 p^3 q^4 r^2 - 64 p^4 q^4 r^2 + 264 p^5 q^4 r^2 - 400 p^6 q^4 r^2 + 192 p^7 q^4 r^2-128 q^5 r^2 + 1200 p q^5 r^2 - 3996 p^2 q^5 r^2 + 5716 p^3 q^5 r^2 - 3876 p^4 q^5 r^2 + 1164 p^5 q^5 r^2 + 714 q^6 r^2 - 4896 p q^6 r^2 + 12024 p^2 q^6 r^2 - 8532 p^3 q^6 r^2- 432 q^7 r^2 - 432 p q^7 r^2 + 16 p^3 q^2 r^3 - 96 p^4 q^2 r^3 + 432 p^5 q^2 r^3 - 1120 p^6 q^2 r^3 + 1248 p^7 q^2 r^3 - 480 p^8 q^2 r^3 + 864 p q^3 r^3 - 6048 p^2 q^3 r^3 +15504 p^3 q^3 r^3 - 18432 p^4 q^3 r^3 + 11088 p^5 q^3 r^3 - 2880 p^6 q^3 r^3 - 432 q^4 r^3 - 1917 p q^4 r^3 + 19008 p^2 q^4 r^3 - 38070 p^3 q^4 r^3 + 20034 p^4 q^4 r^3 + 2376 q^5 r^3 - 11340 p q^5 r^3 + 16848 p^2 q^5 r^3 - 384 p^6 r^4 + 1152 p^7 r^4 - 1152 p^8 r^4 + 384 p^9 r^4 - 1728 p^2 q r^4 + 10368 p^3 q r^4- 22464 p^4 q r^4 + 24192 p^5 q r^4 - 13824 p^6 q r^4 + 3456 p^7 q r^4 - 864 q^2 r^4 + 7128 p q^2 r^4 - 13608 p^2 q^2 r^4 - 9288 p^3 q^2 r^4 + 32400 p^4 q^2 r^4 -14256 p^5 q^2 r^4 + 2592 q^3 r^4 - 30132 p q^3 r^4+ 89424 p^2 q^3 r^4 - 73872 p^3 q^3 r^4 + 7290 q^4 r^4 -10206 p q^4 r^4 + 3888 p r^5 - 23328 p^2 r^5 + 53136 p^3 r^5 - 62208 p^4 r^5 + 42768 p^5 r^5 - 15552 p^6 r^5-11664 p q r^5 + 93312 p^2 q r^5 - 186624 p^3 q r^5 + 116640 p^4 q r^5 + 1458 q^2 r^5 - 54675 p q^2 r^5 + 43740 p^2 q^2 r^5 + 26244 q^3 r^5 - 17496 r^6 + 104976 p^2 r^6 - 104976 p^3 r^6 + 78732 q r^6 - 78732 p q r^6 + 118098 r^7) /(2 d1 d2 d3)',
    ('q', 1, 1): '0',
    ('q', 1, 2): '0',
    ('q', 1, 3): '1',
    ('q', 1, 4): '0',
    ('q', 1, 5): '0',
    ('q', 2, 1): 'p q (-q^3 + 4 (-1 + 2 p) q r + 36 r^2) /(8d1)',
    ('q', 2, 2): 'q (-2 (p^2 - 4 q) q^3 + q (8 p^2 (-1 + 2 p) + 9 (2 - 5 p) q) r + 18 (4 + 2 p (-5 + 4 p) - 15 q) r^2)/(4pd1)',
    ('q', 2, 3): 'p (-2 q^4 + 11 (-1 + 2 p) q^2 r + 3 (-4 (1 - 2 p)^2 + 27 q) r^2)/(2 d1)',
    ('q', 2, 4): 'p q (-7 q^3 + 12 (-1 + 2 p) q r + 216 r^2)/(4d1)',
    ('q', 2, 5): 'q ((p - p^2 - 4 q) q^3 + (-1 + 2 p) q (4 (-1 + p) p + 9 q) r + 9 (-4 - 12 (-1 + p) p + 15 q) r^2)/(2p d1)',
    ('q', 3, 1): 'q^2 r (-4 (-1 + p) p - 15 q) /(4d1)',
    ('q', 3, 2): 'q^2 ((2 - 4 p) q^3 - 6 (4 + p (-5 + 4 p)) q r + 108 q^2 r + r (-8 (-1 + p) p^3 - 27 (-2 + p) r))/(2p^2 d1)',
    ('q', 3, 3): '-r (8 (-1 + p) p q^2 + 30 q^3 - 3 (-1 + 2 p) (4 (-1 + p) p + 3 q) r + 81 r^2)/d1',
    ('q', 3, 4): '(4 (-1 + 2 p) q^4 - 3 q^2 (8 (-1 + p) p + 27 q) r )/(2d1)',
    ('q', 3, 5): 'q^2 ((-1 + 2 p) q^3 + 6 (2 + 3 (-1 + p) p) q r - 54 q^2 r + r (-4 (-1 + p)^2 p^2 + 27 (-1 + 2 p) r))/(p^2 d1)',
    ('q', 4, 1): 'q^2 r (4 (-1 + p) p + 15 q)/(8d1)',
    ('q', 4, 2): 'q r (2 q (4 (-1 + p) p^3 + (16 + 3 p (-10 + 9 p)) q - 60 q^2) - 3 (8 (-1 + p) p (-1 + 2 p) - 9 (-2 + p) q) r + 162 r^2)/(4p^2 d1)',
    ('q', 4, 3): 'r (8 (-1 + p) p q^2 + 30 q^3 - 3 (-1 + 2 p) (4 (-1 + p) p + 3 q) r + 81 r^2)/(2d1)',
    ('q', 4, 4): 'q^2 ((4 - 8 p) q^2 + 24 (-1 + p) p r + 81 q r)/(4d1)',
    ('q', 4, 5): 'q r (q (4 (-1 + p)^2 p^2 + (-16 - 33 (-1 + p) p) q + 60 q^2) + 3 (-1 + 2 p) (4 (-1 + p) p - 9 q) r - 81 r^2)/(2p^2 d1)',
    ('q', 5, 1): '-p q (p^3 q^7 - p^4 q^7 - 4 q^8 + 8 p^2 q^8 + 16 q^9 + 10 p^3 q^5 r - 28 p^4 q^5 r + 18 p^5 q^5 r - 32 q^6 r + 57 p q^6 r + 74 p^2 q^6 r - 140 p^3 q^6 r + 136 q^7 r - 200 p q^7 r + 48 p^3 q^3 r^2 - 224 p^4 q^3 r^2 + 320 p^5 q^3 r^2 - 144 p^6 q^3 r^2 - 64 q^4 r^2 + 264 p q^4 r^2 + 64 p^2 q^4 r^2 - 1108 p^3 q^4 r^2 + 980 p^4 q^4 r^2 + 405 q^5 r^2 - 1449 p q^5 r^2 + 1188 p^2 q^5 r^2 - 360 q^6 r^2 + 96 p^3 q r^3 - 480 p^4 q r^3 + 1024 p^5 q r^3 - 992 p^6 q r^3 + 352 p^7 q r^3 + 144 p q^2 r^3 - 432 p^2 q^2 r^3 - 1728 p^3 q^2 r^3+ 4464 p^4 q^2 r^3 - 2592 p^5 q^2 r^3 + 360 q^3 r^3 - 828 p q^3 r^3 + 3942 p^2 q^3 r^3 - 1746 p^3 q^3 r^3 - 1242 q^4 r^3 - 4968 p q^4 r^3 - 576 p^2 r^4 + 1440 p^3 r^4 + 576 p^4 r^4 - 2592 p^5 r^4 + 1152 p^6 r^4 - 432 q r^4 + 2592 p q r^4 - 4752 p^2 q r^4 + 864 p^3 q r^4 - 1728 p^4 q r^4 + 2916 q^2 r^4- 15066 p q^2 r^4 + 32076 p^2 q^2 r^4 - 7047 q^3 r^4 + 3888 r^5 - 7776 p r^5 + 17496 p^2 r^5 - 13608 p^3 r^5 - 14580 q r^5 - 14580 p q r^5 - 26244 r^6)/(8d1 d2 d3)',
    ('q', 5, 2): 'q (-2 p^5 q^7 + 2 p^6 q^7 + 16 p q^8 - 46 p^2 q^8 + 56 p^3 q^8 - 32 p^4 q^8 - 32 q^9 - 96 p q^9 + 224 p^2 q^9 + 128 q^{10} - 20 p^5 q^5 r + 56 p^6 q^5 r - 36 p^7 q^5 r + 128 p q^6 r - 600 p^2 q^6 r + 1140 p^3 q^6 r - 1135 p^4 q^6 r + 533 p^5 q^6 r - 200 q^7 r - 556 p q^7 r + 3496 p^2 q^7 r - 3640 p^3 q^7 r + 864 q^8 r - 720 p q^8 r - 96 p^5 q^3 r^2 + 448 p^6 q^3 r^2 - 640 p^7 q^3 r^2 + 288 p^8 q^3 r^2 + 256 p q^4 r^2 - 1952 p^2 q^4 r^2 + 5692 p^3 q^4 r^2 - 8808 p^4 q^4 r^2 + 7820 p^5 q^4 r^2 - 3248 p^6 q^4 r^2 - 576 q^5 r^2 + 1098 p q^5 r^2 + 8829 p^2 q^5 r^2 - 26334 p^3 q^5 r^2 +18810 p^4 q^5 r^2 + 3312 q^6 r^2 - 11304 p q^6 r^2 + 9216 p^2 q^6 r^2 - 2592 q^7 r^2 - 192 p^5 q r^3 + 960 p^6 q r^3 - 2048 p^7 q r^3 + 1984 p^8 q r^3 - 704 p^9 q r^3 -1152 p^2 q^2 r^3 + 8064 p^3 q^2 r^3 - 20880 p^4 q^2 r^3 + 29376 p^5 q^2 r^3 - 23040 p^6 q^2 r^3 + 7920 p^7 q^2 r^3 - 1152 q^3 r^3 + 5904 p q^3 r^3 - 4176 p^2 q^3 r^3 - 42660 p^3 q^3 r^3 + 85068 p^4 q^3 r^3 - 45504 p^5 q^3 r^3 + 8154 q^4 r^3 - 24273 p q^4 r^3 + 54729 p^2 q^4 r^3 - 27108 p^3 q^4 r^3 - 11664 q^5 r^3 - 33048 p q^5 r^3 + 2880 p^3 r^4 - 15552 p^4 r^4 + 33408 p^5 r^4 - 37440 p^6 r^4 + 21312 p^7 r^4 - 4608 p^8 r^4 - 864 p q r^4 + 5616 p^2 q r^4 - 42336 p^3 q r^4 + 128952 p^4 q r^4 - 140400 p^5 q r^4 + 52920 p^6 q r^4 - 3888 q^2 r^4 + 31104 p q^2 r^4 - 61236 p^2 q^2 r^4 + 23814 p^3 q^2 r^4- 28674 p^4 q^2 r^4 + 31590 q^3 r^4 - 178848 p q^3 r^4 + 303750 p^2 q^3 r^4 - 52488 q^4 r^4 - 7776 r^5 + 42768 p r^5 - 89424 p^2 r^5 + 29160 p^3 r^5 + 71928 p^4 r^5 - 50544 p^5 r^5 + 64152 q r^5 - 177876 p q r^5 + 392202 p^2 q r^5 - 204120 p^3 q r^5 - 118098 q^2 r^5 - 190269 p q^2 r^5 + 52488 r^6 - 367416 p r^6 + 459270 p^2 r^6 - 196830 q r^6) /(4p d1 d2 d3)',
    ('q', 5, 3): 'p (-p^2 q^8 - p^3 q^8 + 2 p^4 q^8 + 16 q^9 + 4 p q^9 - 40 p^2 q^9 - 64 q^{10} - 16 p^2 q^6 r + 33 p^3 q^6 r + 4 p^4 q^6 r - 21 p^5 q^6 r + 152 q^7 r - 295 p q^7 r - 258 p^2 q^7 r + 570 p^3 q^7 r - 640 q^8 r + 968 p q^8 r - 80 p^2 q^4 r^2 + 292 p^3 q^4 r^2 - 192 p^4 q^4 r^2 - 204 p^5 q^4 r^2 + 184 p^6 q^4 r^2 + 448 q^5 r^2 - 2054 p q^5 r^2 + 1689 p^2 q^5 r^2+ 2695 p^3 q^5 r^2 - 3296 p^4 q^5 r^2 - 2508 q^6 r^2 + 8919 p q^6 r^2 - 7590 p^2 q^6 r^2 + 1728 q^7 r^2 - 128 p^2 q^2 r^3 + 528 p^3 q^2 r^3 - 560 p^4 q^2 r^3 - 864 p^5 q^2 r^3 + 1904 p^6 q^2 r^3 - 880 p^7 q^2 r^3 + 384 q^3 r^3 - 3168 p q^3 r^3 + 8112 p^2 q^3 r^3 + 240 p^3 q^3 r^3 - 15912 p^4 q^3 r^3 + 11496 p^5 q^3 r^3 - 3294 q^4 r^3 + 13356 p q^4 r^3 - 32832 p^2 q^4 r^3 + 14904 p^3 q^4 r^3 + 4968 q^5 r^3 + 21006 p q^5 r^3 - 192 p^3 r^4 + 1152 p^4 r^4 - 3264 p^5 r^4 + 5376 p^6 r^4 - 4608 p^7 r^4 + 1536 p^8 r^4+ 288 p q r^4 + 432 p^2 q r^4 + 4320 p^3 q r^4 - 29952 p^4 q r^4 + 43632 p^5 q r^4 - 20736 p^6 q r^4 + 3024 q^2 r^4 - 18360 p q^2 r^4 + 31104 p^2 q^2 r^4 -11880 p^3 q^2 r^4 + 21168 p^4 q^2 r^4 - 20250 q^3 r^4 + 99387 p q^3 r^4 - 179010 p^2 q^3 r^4 + 32076 q^4 r^4 + 2592 r^5 - 18144 p r^5 + 40176 p^2 r^5 - 16848 p^3 r^5 - 31104 p^4 r^5 + 20736 p^5 r^5 - 29160 q r^5 + 83592 p q r^5 - 169128 p^2 q r^5 + 104976 p^3 q r^5 + 62694 q^2 r^5 + 143613 p q^2 r^5 - 17496 r^6 + 157464 p r^6 - 244944 p^2 r^6+ 118098 q r^6) /(4 d1 d2 d3)',
    ('q', 5, 4): '-p q (2 p^2 q^7 + p^3 q^7 - 3 p^4 q^7 - 28 q^8 - 8 p q^8 +72 p^2 q^8 + 112 q^9 + 56 p^3 q^5 r - 152 p^4 q^5 r +96 p^5 q^5 r - 160 q^6 r + 101 p q^6 r + 1050 p^2 q^6 r -1384 p^3 q^6 r + 696 q^7 r - 840 p q^7 r - 32 p^2 q^3 r^2 + 272 p^3 q^3 r^2 - 928 p^4 q^3 r^2 + 1248 p^5 q^3 r^2 - 560 p^6 q^3 r^2 - 192 q^4 r^2 + 840 p q^4 r^2 + 2142 p^2 q^4 r^2 - 9282 p^3 q^4 r^2 + 7140 p^4 q^4 r^2 + 1539 q^5 r^2 - 6885 p q^5 r^2 + 6696 p^2 q^5 r^2 - 1944 q^6 r^2 + 384 p^3 q r^3 -1536 p^4 q r^3 + 2880 p^5 q r^3 - 2688 p^6 q r^3+ 960 p^7 q r^3 + 720 p q^2 r^3 - 2160 p^2 q^2 r^3 - 10800 p^3 q^2 r^3 + 26784 p^4 q^2 r^3 - 14688 p^5 q^2 r^3 + 2376 q^3 r^3 - 5616 p q^3 r^3 + 26082 p^2 q^3 r^3- 16254 p^3 q^3 r^3 - 9558 q^4 r^3 - 24948 p q^4 r^3 - 2592 p^2 r^4 + 3456 p^3 r^4 + 15552 p^4 r^4 - 28512 p^5 r^4 + 12096 p^6 r^4 - 1296 q r^4 + 9072 p q r^4 - 21384 p^2 q r^4 + 8424 p^3 q r^4 - 14256 p^4 q r^4 + 11664 q^2 r^4 - 72900 p q^2 r^4 + 180792 p^2 q^2 r^4 - 41553 q^3 r^4 + 23328 r^5 - 52488 p r^5 + 122472 p^2 r^5- 99144 p^3 r^5 - 96228 q r^5 - 21870 p q r^5 - 157464 r^6)/(4 d1 d2 d3)',
    ('q', 5, 5): '-q (-p^4 q^7 + 2 p^5 q^7 - p^6 q^7 + 12 p q^8 - 40 p^2 q^8 + 56 p^3 q^8 - 36 p^4 q^8 - 16 q^9 - 64 p q^9 + 144 p^2 q^9 + 64 q^{10} - 10 p^4 q^5 r + 38 p^5 q^5 r - 46 p^6 q^5 r + 18 p^7 q^5 r + 96 p q^6 r - 493 p^2 q^6 r + 1024 p^3 q^6 r - 1085 p^4 q^6 r + 522 p^5 q^6 r - 100 q^7 r - 432 p q^7 r + 2328 p^2 q^7 r - 2400 p^3 q^7 r + 432 q^8 r - 288 p q^8 r - 48 p^4 q^3 r^2 + 272 p^5 q^3 r^2 - 544 p^6 q^3 r^2 + 464 p^7 q^3 r^2 - 144 p^8 q^3 r^2 + 192 p q^4 r^2 - 1512 p^2 q^4 r^2 + 4534 p^3 q^4 r^2 - 7020 p^4 q^4 r^2 + 6006 p^5 q^4 r^2 - 2328 p^6 q^4 r^2 - 288 q^5 r^2 + 288 p q^5 r^2 + 6246 p^2 q^5 r^2 - 16956 p^3 q^5 r^2 + 11763 p^4 q^5 r^2 + 1656 q^6 r^2 - 5832 p q^6 r^2 + 4968 p^2 q^6 r^2 - 1296 q^7 r^2 - 96 p^4 q r^3 + 576 p^5 q r^3 - 1504 p^6 q r^3 + 2016 p^7 q r^3 -1344 p^8 q r^3 + 352 p^9 q r^3 - 720 p^2 q^2 r^3 + 5328 p^3 q^2 r^3 - 14400 p^4 q^2 r^3 + 20448 p^5 q^2 r^3 -15984 p^6 q^2 r^3 + 5328 p^7 q^2 r^3 - 576 q^3 r^3 + 3456 p q^3 r^3 - 3240 p^2 q^3 r^3 - 24012 p^3 q^3 r^3 + 51408 p^4 q^3 r^3 - 27972 p^5 q^3 r^3 + 4077 q^4 r^3 - 14904 p q^4 r^3 + 34830 p^2 q^4 r^3 - 19116 p^3 q^4 r^3 - 5832 q^5 r^3 - 15552 p q^5 r^3 + 2016 p^3 r^4 - 12096 p^4 r^4 + 30240 p^5 r^4 - 40896 p^6 r^4+ 29376 p^7 r^4 - 8640 p^8 r^4 - 19008 p^3 q r^4 + 80352 p^4 q r^4 - 103680 p^5 q r^4 + 45360 p^6 q r^4 - 1944 q^2 r^4 + 13608 p q^2 r^4 - 25272 p^2 q^2 r^4 + 5832 p^3 q^2 r^4 - 21384 p^4 q^2 r^4 + 15795 q^3 r^4 - 91854 p q^3 r^4 + 178605 p^2 q^3 r^4 - 26244 q^4 r^4 - 3888 r^5 + 23328 p r^5 - 58320 p^2 r^5 + 42768 p^3 r^5 + 11664 p^4 r^5 - 11664 p^5 r^5 + 32076 q r^5 - 100602 p q r^5 + 266814 p^2 q r^5 - 196830 p^3 q r^5 - 59049 q^2 r^5 - 91854 p q^2 r^5 + 26244 r^6 - 196830 p r^6 + 314928 p^2 r^6 - 98415 q r^6) /(2p d1 d2 d3)',
    ('r', 1, 1): '0',
    ('r', 1, 2): '0',
    ('r', 1, 3): '0',
    ('r', 1, 4): '1',
    ('r', 1, 5): '0',
    ('r', 2, 1): '-p r^2 (-4 p + 4 p^2 + 15 q) /(4d1 )',
    ('r', 2, 2): 'r ((2 - 4 p) q^3 - 6 (4 + p (-5 + 4 p)) q r + 108 q^2 r + r (-8 (-1 + p) p^3 - 27 (-2 + p) r))/(2p d1)',
    ('r', 2, 3): 'p r ((1 - 2 p) q^3 + (4 + 7 (-1 + p) p - 36 q) q r + 9 (-1 + 2 p) r^2)/(q d1)',
    ('r', 2, 4): 'p r ((-4 + 8 p) q^2 - 24 (-1 + p) p r - 81 q r)/(2d1)',
    ('r', 2, 5): 'r ((-1 + 2 p) q^3 + 6 (2 + 3 (-1 + p) p) q r - 54 q^2 r + r (-4 (-1 + p)^2 p^2 + 27 (-1 + 2 p) r))/(p d1)',
    ('r', 3, 1): 'q^2 r (4 (-1 + p) p + 15 q) /(8d1)',
    ('r', 3, 2): 'q r (2 q (4 (-1 + p) p^3 + (16 + 3 p (-10 + 9 p)) q - 60 q^2) - 3 (8 (-1 + p) p (-1 + 2 p) - 9 (-2 + p) q) r + 162 r^2)/(4p^2 d1)',
    ('r', 3, 3): 'r (8 (-1 + p) p q^2 + 30 q^3 - 3 (-1 + 2 p) (4 (-1 + p) p + 3 q) r + 81 r^2)/(2d1)',
    ('r', 3, 4): 'q^2 ((4 - 8 p) q^2 + 24 (-1 + p) p r + 81 q r)/(4d1)',
    ('r', 3, 5): 'q r (q (4 (-1 + p)^2 p^2 + (-16 - 33 (-1 + p) p) q + 60 q^2) + 3 (-1 + 2 p) (4 (-1 + p) p - 9 q) r - 81 r^2)/(2p^2 d1)',
    ('r', 4, 1): 'r ((p - p^2 - 4 q) q^2 + (-1 + 2 p) q r + 9 r^2)/(4d1)',
    ('r', 4, 2): 'r (q^2 (-2 (-1 + p) p^3 + (-8 + (15 - 14 p) p) q + 32 q^2) + 2 q (p (3 + 2 p (-5 + 4 p) - 9 q) + 9 q) r + 9 (2 + p (-5 + 4 p) - 12 q) r^2)/(2p^2 d1)',
    ('r', 4, 3): 'r (-2 q^3 ((-1 + p) p + 4 q) + (-1 + 2 p) q (3 (-1 + p) p + 5 q) r - 3 (1 - 2 p)^2 r^2)/(q d1)',
    ('r', 4, 4): '((-1 + 2 p) q^4 - 2 q^2 (3 (-1 + p) p + 11 q) r + 3 (-1 + 2 p) q r^2 + 54 r^3)/(2 d1)',
    ('r', 4, 5): 'r (-q^2 (-(-1 + p)^2 + 4 q) (-p^2 + 4 q) + (-1 + 2 p) q (-2 (-1 + p) p + 9 q) r + 9 (-1 - 3 (-1 + p) p + 6 q) r^2)/(p^2 d1)',
    ('r', 5, 1): 'p r (p^3 q^6 - 2 p^4 q^6 + p^5 q^6 - 6 p q^7 + 10 p^2 q^7 - 10 p^3 q^7 + 40 p q^8 + 16 p^3 q^4 r - 56 p^4 q^4 r + 64 p^5 q^4 r - 24 p^6 q^4 r - 80 p q^5 r + 243 p^2 q^5 r - 311 p^3 q^5 r + 196 p^4 q^5 r + 120 q^6 r + 198 p q^6 r - 508 p^2 q^6 r - 480 q^7 r + 48 p^3 q^2 r^2 - 176 p^4 q^2 r^2 + 256 p^5 q^2 r^2 - 176 p^6 q^2 r^2 + 48 p^7 q^2 r^2 - 224 p q^3 r^2 + 832 p^2 q^3 r^2 - 1632 p^3 q^3 r^2 + 1704 p^4 q^3 r^2 - 776 p^5 q^3 r^2 + 480 q^4 r^2 + 564 p q^4 r^2 - 3294 p^2 q^4 r^2 + 3738 p^3 q^4 r^2 - 2160 q^5 r^2 - 594 p q^5 r^2 - 128 p^5 r^3 + 384 p^6 r^3 - 384 p^7 r^3 + 128 p^8 r^3 + 336 p^2 q r^3 - 960 p^3 q r^3 + 1536 p^4 q r^3 - 1296 p^5 q r^3 + 384 p^6 q r^3 + 216 p q^2 r^3 - 6696 p^2 q^2 r^3 + 13824 p^3 q^2 r^3 - 9936 p^4 q^2 r^3 + 810 q^3 r^3 - 1701 p q^3 r^3 + 13230 p^2 q^3 r^3 - 6480 q^4 r^3 - 864 p r^4 + 432 p^2 r^4 + 5184 p^3 r^4 - 10368 p^4 r^4 + 5616 p^5 r^4 + 3240 q r^4 - 1296 p q r^4 + 5832 p^2 q r^4 - 6480 p^3 q r^4 - 14580 q^2 r^4 + 729 p q^2 r^4 + 5832 p^2 r^5 - 21870 q r^5)/(8 d1 d2 d3)',
    ('r', 5, 2): '-r (-2 p^5 q^6 + 4 p^6 q^6 - 2 p^7 q^6 + 4 p^2 q^7 + 5 p^3 q^7 - 19 p^4 q^7 + 22 p^5 q^7 + 16 q^8 - 96 p q^8 + 76 p^2 q^8 - 88 p^3 q^8 - 64 q^9 + 448 p q^9 - 32 p^5 q^4 r + 112 p^6 q^4 r - 128 p^7 q^4 r + 48 p^8 q^4 r + 96 p^2 q^5 r - 234 p^3 q^5 r + 86 p^4 q^5 r + 284 p^5 q^5 r - 328 p^6 q^5 r - 128 q^6 r + 164 p q^6 r - 687 p^2 q^6 r + 1000 p^3 q^6 r + 88 p^4 q^6 r + 1344 q^7 r - 96 p q^7 r - 1680 p^2 q^7 r - 3456 q^8 r - 96 p^5 q^2 r^2 + 352 p^6 q^2 r^2 - 512 p^7 q^2 r^2 + 352 p^8 q^2 r^2 - 96 p^9 q^2 r^2 + 320 p^2 q^3 r^2 - 912 p^3 q^3 r^2 + 768 p^4 q^3 r^2 + 816 p^5 q^3 r^2 - 1984 p^6 q^3 r^2 + 1184 p^7 q^3 r^2 - 768 q^4 r^2 + 1248 p q^4 r^2 - 738 p^2 q^4 r^2- 1116 p^3 q^4 r^2 + 2886 p^4 q^4 r^2 - 3792 p^5 q^4 r^2 + 7452 q^5 r^2 - 4104 p q^5 r^2 - 16821 p^2 q^5 r^2 + 26082 p^3 q^5 r^2 - 18144 q^6 r^2 - 2592 p q^6 r^2 + 256 p^7 r^3 - 768 p^8 r^3 + 768 p^9 r^3 - 256 p^10 r^3 - 96 p^3 q r^3 - 960 p^4 q r^3 + 3456 p^5 q r^3 - 4512 p^6 q r^3 + 2496 p^7 q r^3 - 384 p^8 q r^3 - 1728 p q^2 r^3 + 16848 p^2 q^2 r^3 - 47736 p^3 q^2 r^3 + 70524 p^4 q^2 r^3 - 55296 p^5 q^2 r^3 + 20412 p^6 q^2 r^3 + 864 q^3 r^3 + 13068 p q^3 r^3 - 115830 p^2 q^3 r^3 + 211950 p^3 q^3 r^3 - 141858 p^4 q^3 r^3 + 6480 q^4 r^3 - 30456 p q^4 r^3 + 114372 p^2 q^4 r^3 - 46656 q^5 r^3 + 6048 p^2 r^4 - 31104 p^3 r^4 + 67392 p^4 r^4 - 75168 p^5 r^4 + 44928 p^6 r^4- 12096 p^7 r^4 - 5184 q r^4 + 14256 p q r^4 - 73872 p^2 q r^4 + 206064 p^3 q r^4 - 257904 p^4 q r^4 +111456 p^5 q r^4 + 49572 q^2 r^4 - 49572 p q^2 r^4 + 43740 p^2 q^2 r^4 + 16038 p^3 q^2 r^4 - 131220 q^3 r^4 + 8748 p q^3 r^4 + 11664 r^5 - 29160 p r^5 - 61236 p^2 r^5 + 230364 p^3 r^5 - 154548 p^4 r^5 - 17496 q r^5+ 34992 p q r^5 + 21870 p^2 q r^5 - 157464 q^2 r^5 - 78732 r^6 + 314928 p r^6)/(4p d1 d2 d3)',
    ('r', 5, 3): '-p r (-2 p^2 q^7 + 6 p^3 q^7 - 6 p^4 q^7 + 2 p^5 q^7 + 8 q^8 - 21 p q^8 + 32 p^2 q^8 - 16 p^3 q^8 - 32 q^9 - 16 p q^9 - 16 p^2 q^5 r + 51 p^3 q^5 r - 46 p^4 q^5 r + 3 p^5 q^5 r + 8 p^6 q^5 r + 64 q^6 r - 186 p q^6 r + 298 p^2 q^6 r - 270 p^3 q^6 r + 28 p^4 q^6 r - 560 q^7 r + 600 p q^7 r + 176 p^2 q^7 r + 1152 q^8 r - 32 p^2 q^3 r^2 + 96 p^3 q^3 r^2- 48 p^4 q^3 r^2 - 200 p^5 q^3 r^2 + 320 p^6 q^3 r^2 - 136 p^7 q^3 r^2 + 128 q^4 r^2 - 384 p q^4 r^2 + 531 p^2 q^4 r^2 + 291 p^3 q^4 r^2 - 1434 p^4 q^4 r^2 + 1252 p^5 q^4 r^2- 1746 q^5 r^2 + 2100 p q^5 r^2 + 2790 p^2 q^5 r^2 - 6930 p^3 q^5 r^2 + 5040 q^6 r^2 + 360 p q^6 r^2 - 48 p^3 q r^3 + 368 p^4 q r^3 - 960 p^5 q r^3 + 1328 p^6 q r^3- 1008 p^7 q r^3 + 320 p^8 q r^3 + 96 p q^2 r^3 - 1536 p^2 q^2 r^3 + 5472 p^3 q^2 r^3 - 10968 p^4 q^2 r^3 + 11592 p^5 q^2 r^3 - 5328 p^6 q^2 r^3 + 144 q^3 r^3 - 1854 p q^3 r^3 + 21105 p^2 q^3 r^3 - 44973 p^3 q^3 r^3 + 35226 p^4 q^3 r^3 - 3348 q^4 r^3 + 8424 p q^4 r^3 - 34560 p^2 q^4 r^3 + 15552 q^5 r^3 - 432 p^2 r^4 + 2592 p^3 r^4 - 6336 p^4 r^4+ 8496 p^5 r^4 - 6624 p^6 r^4 + 2304 p^7 r^4 + 864 q r^4 - 2808 p q r^4 + 12312 p^2 q r^4 - 36936 p^3 q r^4 + 52488 p^4 q r^4 - 26784 p^5 q r^4 - 12150 q^2 r^4 +13203 p q^2 r^4 - 13608 p^2 q^2 r^4 + 3888 p^3 q^2 r^4 + 37422 q^3 r^4 + 10692 p q^3 r^4 - 1944 r^5 + 3888 p r^5 + 19440 p^2 r^5 - 60264 p^3 r^5 + 42768 p^4 r^5+ 2916 q r^5 + 13122 p q r^5 - 51030 p^2 q r^5 + 52488 q^2 r^5 + 13122 r^6 - 52488 p r^6) /(2q d1 d2 d3)',
    ('r', 5, 4): 'p r (-8 p^2 q^6 + 39 p^3 q^6 - 54 p^4 q^6 + 23 p^5 q^6 + 32 q^7 - 166 p q^7 + 246 p^2 q^7 - 182 p^3 q^7 - 128 q^8 + 536 p q^8 - 32 p^2 q^4 r + 216 p^3 q^4 r - 464 p^4 q^4 r + 408 p^5 q^4 r - 128 p^6 q^4 r + 128 q^5 r - 960 p q^5 r + 2069 p^2 q^5 r - 2065 p^3 q^5 r + 940 p^4 q^5 r + 72 q^6 r + 2586 p q^6 r - 3396 p^2 q^6 r - 2592 q^7 r + 304 p^3 q^2 r^2 - 1008 p^4 q^2 r^2 + 1184 p^5 q^2 r^2 - 560 p^6 q^2 r^2 + 80 p^7 q^2 r^2 - 1440 p q^3 r^2 + 4656 p^2 q^3 r^2 - 7056 p^3 q^3 r^2 + 5352 p^4 q^3 r^2 - 1608 p^5 q^3 r^2 + 2808 q^4 r^2 + 3564 p q^4 r^2 - 17658 p^2 q^4 r^2 + 17550 p^3 q^4 r^2 - 13392 q^5 r^2 - 1998 p q^5 r^2 - 192 p^4 r^3 + 192 p^5 r^3 + 576 p^6 r^3 - 960 p^7 r^3 + 384 p^8 r^3 + 2160 p^2 q r^3 - 6048 p^3 q r^3 + 8640 p^4 q r^3 - 6480 p^5 q r^3 + 1728 p^6 q r^3 + 864 q^2 r^3 - 1296 p q^2 r^3 - 37044 p^2 q^2 r^3 + 80892 p^3 q^2 r^3 - 58536 p^4 q^2 r^3 + 486 q^3 r^3 - 3483 p q^3 r^3 + 76626 p^2 q^3 r^3 - 34992 q^4 r^3 - 5184 p r^4 + 1296 p^2 r^4 + 38880 p^3 r^4 - 75168 p^4 r^4 + 40176 p^5 r^4 + 17496 q r^4 - 11664 p q r^4 + 52488 p^2 q r^4 - 58320 p^3 q r^4 - 84564 q^2 r^4 + 34263 p q^2 r^4 + 8748 p r^5 + 17496 p^2 r^5 - 118098 q r^5)/(4 d1 d2 d3)',
    ('r', 5, 5): 'r (-p^4 q^6 + 3 p^5 q^6 - 3 p^6 q^6 + p^7 q^6 + 8 p^2 q^7 - 24 p^3 q^7 + 34 p^4 q^7 - 18 p^5 q^7 + 8 q^8 - 48 p q^8 + 16 p^2 q^8 - 32 q^9 + 224 p q^9 - 16 p^4 q^4 r + 72 p^5 q^4 r- 120 p^6 q^4 r + 88 p^7 q^4 r - 24 p^8 q^4 r + 128 p^2 q^5 r - 592 p^3 q^5 r + 1164 p^4 q^5 r - 1144 p^5 q^5 r + 444 p^6 q^5 r - 64 q^6 r + 106 p q^6 r - 792 p^2 q^6 r + 1908 p^3 q^6 r - 1188 p^4 q^6 r + 672 q^7 r - 144 p q^7 r - 576 p^2 q^7 r - 1728 q^8 r - 48 p^4 q^2 r^2 + 224 p^5 q^2 r^2 - 432 p^6 q^2 r^2 + 432 p^7 q^2 r^2 - 224 p^8 q^2 r^2+ 48 p^9 q^2 r^2 + 384 p^2 q^3 r^2 - 1952 p^3 q^3 r^2 + 4688 p^4 q^3 r^2 - 6288 p^5 q^3 r^2 + 4560 p^6 q^3 r^2 - 1392 p^7 q^3 r^2 - 384 q^4 r^2 + 720 p q^4 r^2 - 1665 p^2 q^4 r^2 + 4422 p^3 q^4 r^2 - 6012 p^4 q^4 r^2 + 2007 p^5 q^4 r^2 + 3726 q^5 r^2 - 2808 p q^5 r^2 - 7560 p^2 q^5 r^2 + 13716 p^3 q^5 r^2 - 9072 q^6 r^2 + 128 p^6 r^3 - 512 p^7 r^3+ 768 p^8 r^3 - 512 p^9 r^3 + 128 p^10 r^3 - 384 p^3 q r^3 + 1152 p^4 q r^3 - 1152 p^5 q r^3 - 192 p^6 q r^3 + 1152 p^7 q r^3 - 576 p^8 q r^3 - 864 p q^2 r^3 + 9288 p^2 q^2 r^3 - 27432 p^3 q^2 r^3 + 43200 p^4 q^2 r^3 - 39312 p^5 q^2 r^3 + 17712 p^6 q^2 r^3 + 432 q^3 r^3 + 5400 p q^3 r^3 - 62856 p^2 q^3 r^3 + 128952 p^3 q^3 r^3 - 96552 p^4 q^3 r^3 + 3240 q^4 r^3 - 10692 p q^4 r^3 + 62208 p^2 q^4 r^3 - 23328 q^5 r^3 + 3888 p^2 r^4 - 21600 p^3 r^4 + 51408 p^4 r^4 - 67392 p^5 r^4 + 50544 p^6 r^4 - 16848 p^7 r^4 - 2592 q r^4 + 7776 p q r^4 - 42768 p^2 q r^4 + 137376 p^3 q r^4 - 194400 p^4 q r^4 + 97200 p^5 q r^4 + 24786 q^2 r^4 - 29889 p q^2 r^4 + 26973 p^2 q^2 r^4 - 12393 p^3 q^2 r^4 - 65610 q^3 r^4 + 21870 p q^3 r^4 + 5832 r^5 - 23328 p r^5 - 17496 p^2 r^5 + 122472 p^3 r^5 - 87480 p^4 r^5 - 8748 q r^5 + 52488 p q r^5 - 26244 p^2 q r^5 - 78732 q^2 r^5 - 39366 r^6 + 216513 p r^6)/(2p d1 d2 d3)',
}


class ExpressionError(ValueError):
    pass


def _tokenize(text: str) -> list:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j])))
            i = j
        elif ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum()):
                j += 1
            run = text[i:j]
            # printed expressions glue symbols together ("4pd1"); split the
            # run greedily into known names
            while run:
                for name in CANDIDATE_DIVISORS:
                    if run.startswith(name):
                        tokens.append(("name", name))
                        run = run[len(name):]
                        break
                else:
                    raise ExpressionError(f"cannot split symbol run {run!r}")
            i = j
        elif ch in "+-/^(){}":
            tokens.append((ch, ch))
            i += 1
        else:
            raise ExpressionError(f"unexpected character {ch!r} in expression")
    return tokens


_Quotient = tuple[MultiPoly, MultiPoly]


class _Parser:
    """Recursive-descent parser for printed polynomial expressions:
    juxtaposition multiplies, '/' divides by the next factor, '^' takes
    integer exponents with or without braces.

    Every subexpression is an unreduced (numerator, denominator) pair of
    polynomials; ``parse`` reduces the whole expression once, so an entry
    with hundreds of printed terms costs one gcd instead of one per term.
    """

    def __init__(self, tokens: list):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self) -> RatFunc:
        num, den = self.expr()
        if self.pos != len(self.tokens):
            raise ExpressionError(f"trailing tokens at {self.pos}: {self.tokens[self.pos:]}")
        return RatFunc(num, den)

    def expr(self) -> _Quotient:
        if self.peek()[0] in ("+", "-"):
            num, den = MultiPoly.zero(), MultiPoly.one()  # a leading sign adds to 0
        else:
            num, den = self.term()
        while True:
            kind, _ = self.peek()
            if kind not in ("+", "-"):
                return num, den
            self.take()
            t_num, t_den = self.term()
            if kind == "-":
                t_num = -t_num
            if t_den == den:
                num = num + t_num
            else:
                num, den = num * t_den + t_num * den, den * t_den

    def term(self) -> _Quotient:
        num, den = self.factor()
        while True:
            kind, _ = self.peek()
            if kind == "/":
                self.take()
                f_num, f_den = self.factor()
                if f_num.is_zero:
                    raise ZeroDivisionError("division by the zero rational function")
                num, den = num * f_den, den * f_num
            elif kind in ("int", "name", "("):
                f_num, f_den = self.factor()
                num, den = num * f_num, den * f_den
            else:
                return num, den

    def factor(self) -> _Quotient:
        num, den = self.atom()
        kind, _ = self.peek()
        if kind == "^":
            self.take()
            kind, val = self.take()
            if kind == "{":
                kind, val = self.take()
                if kind != "int":
                    raise ExpressionError("expected integer exponent in braces")
                closing, _ = self.take()
                if closing != "}":
                    raise ExpressionError("unclosed exponent brace")
            elif kind != "int":
                raise ExpressionError("expected integer exponent after ^")
            return num ** val, den ** val
        return num, den

    def atom(self) -> _Quotient:
        kind, val = self.take()
        if kind == "int":
            return MultiPoly.constant(val), MultiPoly.one()
        if kind == "name":
            return CANDIDATE_DIVISORS[val], MultiPoly.one()
        if kind == "(":
            inner = self.expr()
            closing, _ = self.take()
            if closing != ")":
                raise ExpressionError("unbalanced parenthesis")
            return inner
        raise ExpressionError(f"unexpected token {kind!r}")


def parse_expression(text: str) -> RatFunc:
    return _Parser(_tokenize(text)).parse()


@lru_cache(maxsize=None)
def appendix_matrices() -> dict[str, tuple[tuple[RatFunc, ...], ...]]:
    """Parse all 75 entries into exact rational functions, keyed 'p'/'q'/'r'."""
    out = {}
    for var in "pqr":
        rows = []
        for i in range(1, 6):
            rows.append(tuple(parse_expression(ENTRIES[(var, i, j)]) for j in range(1, 6)))
        out[var] = tuple(rows)
    return out


def parsed_divisor_texts() -> dict[str, RatFunc]:
    return {
        "d1": parse_expression(D1_TEXT),
        "d2": parse_expression(D2_TEXT),
        "d3": parse_expression(D3_TEXT),
    }
