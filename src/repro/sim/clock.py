"""Clock frequency of the behavioural simulator.

The ALRESCHA evaluation (Table 5 of the paper) runs the accelerator at
2.5 GHz.  Everything in the timing model is expressed in cycles; a
report divides its cycles by this frequency to state seconds.
"""

#: Default accelerator clock frequency from Table 5 of the paper.
DEFAULT_FREQUENCY_HZ = 2.5e9
