"""Interpretable surrogate MPC for building demand response.

The package chains five pieces: a 1R1C thermal testbed, two small neural
surrogates of its hourly response, a two-hour setpoint optimizer, an exact
Shapley attribution engine, and a template-driven explainer with an optional
chat-model narration gateway.  See the module docstrings for the contracts
of each piece and the ``xmpc`` command-line tool for the end-to-end flow.
Import names from those submodules; the package itself re-exports nothing.
"""
